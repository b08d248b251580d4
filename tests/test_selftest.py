"""The verification battery behind `zmspec selftest` and the acceptance suite.

Each negative control corrupts one check's subject through the ``cli``
namespace, where the checks look their callees up, and requires both the
check on its selftest grid and `zmspec selftest` to report the failure.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import zmspec
from zmspec import cli, projective
from zmspec.matrices import ExactMatrix
from zmspec.spectrum import SpectrumRow, SpectrumTable

SELFTEST_GRIDS = {name: (check, grid) for name, check, grid in cli.SELFTEST_CHECKS}


def _entry_plus_one(build):
    """An ExactMatrix builder whose entry (0, 1) is one too large."""
    def wrong(*args):
        data = build(*args).to_lists()
        data[0][1] += 1
        return ExactMatrix(data)
    return wrong


def _plus_one(count):
    return lambda *args: count(*args) + 1


def _perturbed(spectrum):
    """Move one unit of multiplicity from the second row to the first; the
    total stays theta, so only the nullities can tell."""
    def wrong(n, m):
        table = spectrum(n, m)
        first, second, *rest = table.rows
        rows = (SpectrumRow(first.eigenvalue, first.multiplicity + 1, first.provenance),
                SpectrumRow(second.eigenvalue, second.multiplicity - 1, second.provenance),
                *rest)
        return SpectrumTable(table.n, table.m, rows)
    return wrong


def _repeated_label(family):
    """Point 1 given point 0's top label in the first factor, so two rows
    of V are equal."""
    def wrong(space):
        right = family(space)
        *below, top = right.levels[0]
        top = top.copy()
        top[1] = top[0]
        return replace(right, levels=((*below, top), *right.levels[1:]))
    return wrong


# (check name, cli binding, corruption)
CORRUPTIONS = [
    ("B32-grid", "build_B_product", _entry_plus_one),
    ("B34-grid", "build_B_product", _entry_plus_one),
    ("dual-construction", "build_B_analytic", _entry_plus_one),
    ("spectrum-verify", "spectrum_general", _perturbed),
    ("tensor-similarity", "tensor_product", _entry_plus_one),
    ("count-2x2-exhaustion", "count_2x2", _plus_one),
    ("layer-counts", "count_layer", _plus_one),
    ("eigenvector-families", "eigvec_family_general", _repeated_label),
    ("structural-identities", "block_identity", _entry_plus_one),
]


def test_every_check_has_a_negative_control():
    assert [name for name, _, _ in CORRUPTIONS] == list(SELFTEST_GRIDS)


@pytest.mark.parametrize("name,binding,corrupt", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_corrupted_subject_fails_its_check(monkeypatch, capsys, name, binding, corrupt):
    monkeypatch.setattr(cli, binding, corrupt(getattr(cli, binding)))
    check, grid = SELFTEST_GRIDS[name]
    case = check(grid)
    assert case is not None
    assert cli.main(["selftest"]) == cli.EXIT_MISMATCH
    assert f"FAIL {name} {case}" in capsys.readouterr().out.splitlines()


def test_criteria_1_and_9_read_the_k_grouped_order(monkeypatch):
    # two rows swapped inside the first class K_1 keep every class a
    # transversal of the fibers but break its alignment with the others
    real = projective._k_grouped_order

    def swapped(space):
        order = real(space).copy()
        order[[0, 1]] = order[[1, 0]]
        return order

    monkeypatch.setattr(projective, "_k_grouped_order", swapped)
    assert cli.check_b_grid([cli.B34_WORKED]) is not None
    assert cli.check_structure(SELFTEST_GRIDS["structural-identities"][1]) is not None


def test_selftest_survives_python_O():
    # the battery guards theorems, so it must not rely on assert statements
    src = str(Path(zmspec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-m", "zmspec.cli", "selftest"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS ") for line in lines)
