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
