"""Tests of the benchmark itself, not of zmspec.

    python3 -m pytest perfbench/test_perfbench.py -q

The negative controls feed each correctness gate a wrong output (a
perturbed spectrum table, a corrupted export, a wrong closed form, a
failed tensor check, a broken eigenvector family, a wrong count) and
require the case to register as failed.  The positive controls run the
same gates on the unmodified program at the warm-up sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import attempt, export_case, family_case, tensor_case, verify_case  # noqa: E402
from zmspec import cli, counting, matrices, spectrum  # noqa: E402
from zmspec.spectrum import (  # noqa: E402
    EigenvalueCheck,
    SpectrumRow,
    SpectrumTable,
    VerificationReport,
)

EXPECTED = workloads.load_expected()


def _perturbed(table: SpectrumTable) -> SpectrumTable:
    """Move one unit of multiplicity from the second row to the first; the
    total stays theta, so only the nullities can tell."""
    rows = list(table.rows)
    first, second = rows[0], rows[1]
    rows[0] = SpectrumRow(first.eigenvalue, first.multiplicity + 1, first.provenance)
    rows[1] = SpectrumRow(second.eigenvalue, second.multiplicity - 1, second.provenance)
    return SpectrumTable(table.n, table.m, tuple(rows))


def _unchecked_report(b, table: SpectrumTable) -> VerificationReport:
    """A verifier that reports every claim as confirmed without computing."""
    entries = tuple(EigenvalueCheck(lam, d, d) for lam, d in table.merged())
    return VerificationReport(table.n, table.m, table.total_multiplicity, entries,
                              True, True, True)


def _rejected(case: workloads.Case) -> bool:
    """The gate itself returned False: the wrong output did not pass and
    did not merely crash the case."""
    return case.run() is False


def _corrupted(export):
    def corrupt(m):
        text = export(m)
        digit = "1" if text[-2] == "0" else "0"
        return text[:-2] + digit + text[-1]
    return corrupt


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gates_pass_on_the_program(workload):
    cases = workloads.build_cases(workload, 0, EXPECTED, warmup=True)
    assert cases and all(attempt(case) for case in cases)


def test_perturbed_spectrum_table_fails_the_verify_gate(monkeypatch):
    real = cli.spectrum_general
    monkeypatch.setattr(cli, "spectrum_general", lambda n, m: _perturbed(real(n, m)))
    assert _rejected(verify_case(3, 4, EXPECTED))


def test_report_that_skips_the_nullities_fails_the_verify_gate(monkeypatch):
    real = cli.spectrum_general
    monkeypatch.setattr(cli, "spectrum_general", lambda n, m: _perturbed(real(n, m)))
    monkeypatch.setattr(cli, "verify_spectrum", _unchecked_report)
    assert _rejected(verify_case(3, 4, EXPECTED))


@pytest.mark.parametrize("export", ["to_csv", "to_matrix_market"])
def test_corrupted_export_fails_the_export_gate(monkeypatch, export):
    monkeypatch.setattr(cli, export, _corrupted(getattr(cli, export)))
    assert _rejected(export_case(3, 4, EXPECTED))


def test_wrong_closed_form_fails_the_export_gate(monkeypatch):
    real = matrices.build_B_analytic

    def off_by_one(space):
        data = real(space).to_lists()
        data[0][1] += 1
        return matrices.ExactMatrix(data)

    monkeypatch.setattr(matrices, "build_B_analytic", off_by_one)
    assert _rejected(export_case(3, 4, EXPECTED))


def test_failed_tensor_check_fails_the_crosscheck_gate(monkeypatch):
    real = cli.tensor_product

    def off_by_one(m1, m2):
        data = real(m1, m2).to_lists()
        data[0][0] += 1
        return matrices.ExactMatrix(data)

    monkeypatch.setattr(cli, "tensor_product", off_by_one)
    assert _rejected(tensor_case(2, 2, 3))


@pytest.mark.parametrize("defect", ["wrong eigenvalue", "repeated vector"])
def test_broken_family_fails_the_crosscheck_gate(monkeypatch, defect):
    real = spectrum.eigvec_family_prime_power

    def broken(n, p, e, **kwargs):
        space, family = real(n, p, e, **kwargs)
        lam, vec = family[1]
        family[1] = (lam + 1, vec) if defect == "wrong eigenvalue" else family[2]
        return space, family

    monkeypatch.setattr(spectrum, "eigvec_family_prime_power", broken)
    assert _rejected(family_case(3, 2, 2))


@pytest.mark.parametrize("closed", ["count_2x2", "count_layer"])
def test_wrong_count_fails_the_crosscheck_gate(monkeypatch, closed):
    real = getattr(counting, closed)
    monkeypatch.setattr(counting, closed, lambda *args: real(*args) + 1)
    cases = [c for c in workloads.build_cases("crosscheck", 0, EXPECTED, warmup=True)
             if c.name.startswith(closed + "(")]
    assert cases and all(_rejected(case) for case in cases)


def test_exception_counts_as_a_failure():
    def crash() -> bool:
        raise ZeroDivisionError

    assert not attempt(workloads.Case("crash", 0, crash))


def test_seed_orders_the_fixed_grid():
    first = [c.name for c in workloads.build_cases("crosscheck", 1, EXPECTED)]
    again = [c.name for c in workloads.build_cases("crosscheck", 1, EXPECTED)]
    other = [c.name for c in workloads.build_cases("crosscheck", 2, EXPECTED)]
    assert first == again
    assert sorted(first) == sorted(other)


def test_tracer_sees_every_binding_and_restores_it():
    build_a, matvec = cli.build_A, vars(matrices.ExactMatrix)["matvec"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.case = 0
        assert attempt(export_case(3, 4, EXPECTED))
        tracer.case = 1
        assert attempt(family_case(3, 2, 2))
    finally:
        tracer.uninstall()
    assert cli.build_A is build_a and vars(matrices.ExactMatrix)["matvec"] is matvec

    export = tracing.pass_metrics(tracer.spans, {0})
    # 3 formats through the CLI build A and B; the gate builds A, B and closed-form B
    assert export["matrices.entries"] == 9 * 28 * 28
    assert export["cli.main.s"] > export["cli.self_s"] > 0
    assert export["matrices.export_bytes"] > 0
    assert export["spectrum.exact_nullity.s"] == 0
    family = tracing.pass_metrics(tracer.spans, {1})
    assert family["matrices.matvec.calls"] == 28
    assert family["spectrum.exact_rank.calls"] == 1
    # the family recurses to e = 1; only the outermost call is counted
    assert family["spectrum.eigvec_family_prime_power.s"] > 0
    assert tracing.pass_metrics(tracer.spans, {0, 1})["cli.main.s"] == export["cli.main.s"]


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_refuses_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
