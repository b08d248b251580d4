"""Checks on the package source itself."""

import ast
from pathlib import Path

import zmspec

PACKAGE = Path(zmspec.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # theorem guards must raise, so that they survive python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_assertion_errors_raised_in_the_package():
    # a theorem guard raises DomainError, which the CLI reports as exit 2
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {
            getattr(node.exc, "id", None),
            getattr(getattr(node.exc, "func", None), "id", None),
        }
    ]
    assert found == []
