"""Checks on the package source itself."""

import ast
from pathlib import Path

import zmspec
from zmspec import counting, errors, matrices, modular, projective, spectrum

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


def test_no_private_names_imported_across_package_modules():
    # each module keeps its own private helpers; the int64 decision, for
    # one, is made only in matrices
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_matrices_and_spectrum_locate_points_through_the_position_table():
    # tuple -> point questions go through ProjectiveSpace.positions or
    # projective.point_keys; the per-point canonicalizers remain only as
    # independent oracles, and no unit is walked or inverted outside
    # projective
    per_point = {"canonical_rep", "delta_map", "crt_combine", "position", "mod_inverse",
                 "units"}
    found = [
        f"{name}:{node.lineno} {_called_name(node)}"
        for name in ("matrices.py", "spectrum.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _called_name(node) in per_point
    ]
    assert found == []


def _calls_by_function(node, owner=None):
    """(innermost enclosing function, called name) for every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, _called_name(child)
        yield from _calls_by_function(child, owner)


def test_every_rank_is_proved_by_exact_rank():
    # the modular and the Bareiss elimination have one caller, so ranks and
    # nullities share one policy
    kernels = {"_rank_mod_p", "_bareiss_rank"}
    found = sorted(
        {
            (path.name, owner, name)
            for path in sorted(PACKAGE.rglob("*.py"))
            for owner, name in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
            if name in kernels
        }
    )
    assert found == [
        ("spectrum.py", "exact_rank", "_bareiss_rank"),
        ("spectrum.py", "exact_rank", "_rank_mod_p"),
    ]


def test_points_are_decided_by_their_keys():
    # the enumeration keeps the first candidate of each point key, and the
    # unit walk is left as the oracle that ProjectivePoint runs on each row
    calls = {
        (path.name, owner, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, name in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert sorted(call for call in calls if call[2] == "_is_orbit_minimum") == [
        ("projective.py", "__post_init__", "_is_orbit_minimum"),
    ]
    assert ("projective.py", "_lex_points", "point_keys") in calls


def test_only_enumeration_takes_a_guardrail():
    # a space is passed in, not rebuilt from (n, m, guardrail), so a user's
    # limit enters only where a space is enumerated
    allowed = {"enumerate_space", "effective_guardrail"}
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name in ("projective.py", "matrices.py", "spectrum.py")
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in allowed
        and "guardrail" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert found == []


def test_matrices_enumerates_no_space():
    tree = ast.parse((PACKAGE / "matrices.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "enumerate_space"
    ]
    assert found == []


def test_only_matrices_names_float64():
    # matrices picks every dtype, and its float32 and float64 tiers are
    # exact only under the bounds it checks; either float anywhere else
    # would be an unchecked path
    found = [
        (path.name, word)
        for path in sorted(PACKAGE.rglob("*.py"))
        for word in ("float32", "float64")
        if path.name != "matrices.py" and word in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_the_package_exports_exactly_the_module_lists():
    # each module's __all__ is the one list of its public names
    modules = (counting, errors, matrices, modular, projective, spectrum)
    owner = {name: module for module in modules for name in module.__all__}
    assert sum(len(module.__all__) for module in modules) == len(owner)
    assert zmspec.__all__ == sorted(owner)
    assert all(getattr(zmspec, name) is getattr(module, name) for name, module in owner.items())
    # besides its submodules, the package binds nothing else public
    public = {
        name for name, value in vars(zmspec).items()
        if not name.startswith("_") and not isinstance(value, type(zmspec))
    }
    assert public == set(owner)


def test_no_package_module_runs_a_call_at_import():
    # importing the package changes no setting of the process: a module's
    # top level defines and assigns, and its one bare expression is its
    # docstring
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for index, node in enumerate(ast.parse(path.read_text(encoding="utf-8")).body)
        if isinstance(node, ast.Expr)
        and not (index == 0 and isinstance(node.value, ast.Constant)
                 and isinstance(node.value.value, str))
    ]
    assert found == []
