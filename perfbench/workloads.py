"""The benchmark's workloads: fixed case lists and their correctness gates.

A case is one unit of work on the closed loop: it runs the program on
fixed inputs and returns True only when every output passed its gate.
The grid of every workload is fixed; the seed only orders the cases and
draws the sampled count inputs (coefficient tuples and point pairs).
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections.abc import Callable
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from zmspec import cli, counting, matrices, projective, spectrum

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = ("verify", "build-export", "crosscheck")

# (n, m) grids; the warm-up grids run the same case code at a tiny size
VERIFY_GRID = ((3, 6), (3, 8), (3, 9), (4, 4), (4, 5), (3, 10))
VERIFY_WARMUP = ((3, 4),)
EXPORT_GRID = ((3, 27), (4, 8), (3, 32))
EXPORT_WARMUP = ((3, 4),)
EXPORT_FORMATS = ("matrixmarket", "csv", "json")


@dataclass(frozen=True)
class CrosscheckGrid:
    """(n, m1, m2) tensor checks, (n, p, e) eigenvector families, (p, e)
    moduli of the 2x2 counts, (n, p, e) spaces of the layer counts, and how
    many coefficient tuples and point pairs the seed draws for the counts."""

    tensor: tuple
    family: tuple
    count_2x2: tuple
    layer: tuple
    coeff_samples: int
    pair_samples: int


CROSSCHECK_GRID = CrosscheckGrid(
    tensor=((3, 2, 9), (3, 3, 8), (3, 5, 4), (4, 2, 3)),
    family=((3, 2, 3), (3, 3, 2), (4, 2, 2), (3, 2, 4)),
    count_2x2=((2, 2), (5, 1), (2, 3), (3, 2)),
    layer=((3, 2, 3), (3, 3, 2)),
    coeff_samples=1024,
    pair_samples=256,
)
CROSSCHECK_WARMUP = CrosscheckGrid(((2, 2, 3),), ((3, 2, 2),), ((2, 1),), ((3, 2, 2),), 8, 8)


@dataclass(frozen=True)
class Case:
    """One timed unit of work.  ``entries`` is theta^2 of the B matrix the
    case builds or checks, 0 for the count cases, which build none."""

    name: str
    entries: int
    run: Callable[[], bool]


def attempt(case: Case) -> bool:
    """Run one case; an exception counts as a failed gate, never a skip."""
    try:
        return case.run() is True
    except Exception:  # noqa: BLE001 - any crash of the program is a failed case
        return False


class OutputSink:
    """Stand-in for stdout that hashes and counts what the program prints.

    Like writing to os.devnull it stores nothing, unless ``keep`` asks for
    the text (only the small reports are parsed)."""

    def __init__(self, keep: bool = False):
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self._parts: list[str] | None = [] if keep else None

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._sha.update(data)
        self.nbytes += len(data)
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    def text(self) -> str:
        if self._parts is None:
            raise ValueError("the sink was not asked to keep its text")
        return "".join(self._parts)


def run_cli(argv: list[str], keep: bool = False) -> tuple[int, OutputSink]:
    """Run ``zmspec <argv>`` in this process with stdout captured."""
    sink = OutputSink(keep)
    with redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _key(*parts) -> str:
    return ",".join(str(p) for p in parts)


# -------------------- verify --------------------


def verify_case(n: int, m: int, expected: dict) -> Case:
    """spectrum --verify: exit 0, every row ok, and the claimed and computed
    multiplicities equal the spectrum recorded in expected.json."""
    want = expected["spectra"][_key(n, m)]

    def run() -> bool:
        code, out = run_cli(["spectrum", "-n", str(n), "-m", str(m), "--verify"], keep=True)
        report = json.loads(out.text())
        entries = report["entries"]
        got = [[e["lambda"], e["claimed"]] for e in entries]
        return (
            code == cli.EXIT_OK
            and report["all_ok"] is True
            and all(e["ok"] is True and e["computed"] == e["claimed"] for e in entries)
            and got == want
        )

    return Case(f"verify({n},{m})", projective.theta(n, m) ** 2, run)


# -------------------- build-export --------------------


def export_case(n: int, m: int, expected: dict) -> Case:
    """matrix --which B in every format: exit 0 and the content digest equals
    the recorded one; then B by product equals B by closed form entrywise."""
    digests = {fmt: expected["digests"][_key(n, m, fmt)] for fmt in EXPORT_FORMATS}

    def run() -> bool:
        checks = []
        for fmt in EXPORT_FORMATS:
            code, out = run_cli(
                ["matrix", "-n", str(n), "-m", str(m), "--which", "B", "--format", fmt]
            )
            checks.append(code == cli.EXIT_OK and out.hexdigest() == digests[fmt])
        space = projective.enumerate_space(n, m)
        product = matrices.build_B_product(matrices.build_A(space))
        checks.append(matrices.build_B_analytic(space) == product)
        return all(checks)

    return Case(f"export({n},{m})", projective.theta(n, m) ** 2, run)


# -------------------- crosscheck --------------------


def tensor_case(n: int, m1: int, m2: int) -> Case:
    """tensor-check: exit 0 and the verdict line says PASS."""

    def run() -> bool:
        code, out = run_cli(["tensor-check", "-n", str(n), "--m1", str(m1), "--m2", str(m2)],
                            keep=True)
        return code == cli.EXIT_OK and out.text().startswith("PASS:")

    return Case(f"tensor({n},{m1},{m2})", projective.theta(n, m1 * m2) ** 2, run)


def family_case(n: int, p: int, e: int) -> Case:
    """The eigenvector family of B_{n,p^e}: every vector has zero residual
    and the theta vectors have exact rank theta."""

    def run() -> bool:
        space, family = spectrum.eigvec_family_prime_power(n, p, e)
        b = matrices.build_B_product(matrices.build_A(space))
        residual_ok = [b.matvec(vec) == [lam * x for x in vec] for lam, vec in family]
        size = len(space)
        stacked = matrices.ExactMatrix([[vec[i] for _, vec in family] for i in range(size)])
        return all(residual_ok) and len(family) == size and spectrum.exact_rank(stacked) == size

    return Case(f"family({n},{p},{e})", projective.theta(n, p**e) ** 2, run)


def count_2x2_case(p: int, e: int, coeffs: list[tuple[int, int, int, int]]) -> Case:
    """count_2x2 equals its brute-force scan on every sampled coefficient tuple."""

    def run() -> bool:
        return all([
            counting.count_2x2(a, b, c, d, p, e) == counting.count_2x2_brute(a, b, c, d, p, e)
            for a, b, c, d in coeffs
        ])

    return Case(f"count_2x2({p}^{e})", 0, run)


def layer_case(n: int, p: int, e: int, pairs: list[tuple]) -> Case:
    """count_layer equals its brute-force scan for every sampled pair and layer."""
    specs = [counting.LayerSpec(g=g, p=p, e=e, n=n) for g in range(e + 1)]

    def run() -> bool:
        return all([
            counting.count_layer(u, v, spec) == counting.count_layer_brute(u, v, spec.g)
            for u, v in pairs
            for spec in specs
        ])

    return Case(f"count_layer({n},{p}^{e})", 0, run)


def crosscheck_cases(rng: random.Random, grid: CrosscheckGrid) -> list[Case]:
    cases = [tensor_case(*t) for t in grid.tensor] + [family_case(*f) for f in grid.family]
    for p, e in grid.count_2x2:
        q = p**e
        coeffs = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(grid.coeff_samples)]
        cases.append(count_2x2_case(p, e, coeffs))
    for n, p, e in grid.layer:
        points = projective.enumerate_space(n, p**e).points
        pairs = [(rng.choice(points), rng.choice(points)) for _ in range(grid.pair_samples)]
        cases.append(layer_case(n, p, e, pairs))
    return cases


# -------------------- case lists --------------------


def build_cases(workload: str, seed: int, expected: dict,
                warmup: bool = False) -> list[Case]:
    """The workload's case list in seeded order (or its tiny warm-up list)."""
    rng = random.Random(seed)
    if workload == "verify":
        cases = [verify_case(n, m, expected) for n, m in (VERIFY_WARMUP if warmup else VERIFY_GRID)]
    elif workload == "build-export":
        cases = [export_case(n, m, expected) for n, m in (EXPORT_WARMUP if warmup else EXPORT_GRID)]
    elif workload == "crosscheck":
        cases = crosscheck_cases(rng, CROSSCHECK_WARMUP if warmup else CROSSCHECK_GRID)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(cases)
    return cases


def set_up(workload: str, seed: int) -> list[Case]:
    """Everything before the first timed case: load the recorded outputs,
    build the seeded case list and run the warm-up list once, gated."""
    expected = load_expected()
    cases = build_cases(workload, seed, expected)
    for case in build_cases(workload, seed, expected, warmup=True):
        if not attempt(case):
            print(f"warm-up case {case.name} failed its gate", file=sys.stderr)
    return cases
