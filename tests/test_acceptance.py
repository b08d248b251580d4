"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is exact; there are no tolerances.  Run with -s to see
the per-criterion lines.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from zmspec import cli
from zmspec.cli import main
from zmspec.counting import LayerSpec, count_layer
from zmspec.matrices import ExactMatrix, build_A, build_B_product
from zmspec.modular import euler_phi
from zmspec.projective import (
    enumerate_space,
    fiber,
    point_label,
    rho_fiber_size,
    theta,
)
from zmspec.spectrum import (
    eigvec_differences,
    eigvec_family_general,
    eigvec_family_prime_power,
    exact_rank,
    spectrum_general,
    spectrum_prime_power,
)

# the minimum prime-power grid of criteria 2 and 3
PRIME_POWER_GRID = [
    (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 1), (3, 3, 2), (3, 5, 1),
    (4, 2, 1), (4, 2, 2), (4, 3, 1),
] + [(2, p, e) for p, e in [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
    (2, 4), (17, 1), (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
    (2, 5), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
]]

# headroom beyond the required minimum, still well inside the runtime cap
EXTRA_DUAL_GRID = [(3, 2, 4), (3, 3, 3), (4, 2, 3), (2, 3, 4), (2, 2, 7), (2, 11, 2)]

KGROUPED_B34_LABELS = [
    "001", "010", "011", "100", "101", "110", "111",
    "021", "012", "013", "102", "103", "112", "113",
    "201", "210", "211", "120", "121", "130", "131",
    "221", "212", "213", "122", "123", "132", "133",
]


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num}: {description} ({elapsed:.2f} s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f} s, budget {budget} s"


def B_of(n, m, ordering="lex"):
    space = enumerate_space(n, m, ordering)
    return space, build_B_product(build_A(space))


def test_criterion_1_reference_grids(capsys):
    with capsys.disabled(), criterion(1, "reference grids for B_{3,4} (k-grouped) and B_{3,2}", budget=1.0):
        space = enumerate_space(3, 4, "k-grouped")
        assert [point_label(pt) for pt in space.points] == KGROUPED_B34_LABELS
        assert cli.check_b_grid([cli.B34_WORKED, cli.B32_WORKED]) is None

    # the same grids through the CLI surface
    code = main(["matrix", "-n", "3", "-m", "4", "--which", "B",
                 "--ordering", "k-grouped", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split()[0] == "(001)"
    values = [line.split()[1:] for line in rows]
    entry = cli.B34_WORKED[-1]
    for i in range(28):
        for j in range(28):
            assert values[i][j] == str(entry(i, j))
    assert main(["matrix", "-n", "3", "-m", "2", "--which", "B"]) == 0
    rows32 = capsys.readouterr().out.strip().splitlines()
    assert rows32[0].split()[1:] == ["3", "1", "1", "1", "1", "1", "1"]


def test_criterion_2_dual_construction(capsys):
    with capsys.disabled(), criterion(
        2, "analytic entries equal the exact product on the prime-power grid",
        budget=120.0,
    ):
        grid = [(n, p**e) for n, p, e in PRIME_POWER_GRID + EXTRA_DUAL_GRID]
        assert cli.check_dual_construction(grid) is None


def test_criterion_3_prime_power_spectra(capsys):
    with capsys.disabled(), criterion(
        3, "prime-power spectrum verified exactly on the grid"
    ):
        assert spectrum_prime_power(3, 2, 2).merged() == ((36, 1), (8, 6), (4, 21))
        assert spectrum_prime_power(3, 2, 1).merged() == ((9, 1), (2, 6))
        # one prime-power factor: the general table is the prime-power table
        for n, p, e in PRIME_POWER_GRID:
            assert spectrum_general(n, p**e) == spectrum_prime_power(n, p, e)
        assert cli.check_spectrum_verify([(n, p**e) for n, p, e in PRIME_POWER_GRID]) is None


def test_criterion_4_composite_spectra(capsys):
    with capsys.disabled(), criterion(
        4, "composite spectra verified (n=2: m in {6,10,12,15}; n=3: m in {6,12})",
        budget=300.0,
    ):
        table36 = spectrum_general(3, 6)
        assert table36.merged() == ((144, 1), (32, 6), (27, 12), (6, 72))
        assert table36.total_multiplicity == 91
        grid = [(2, 6), (2, 10), (2, 12), (2, 15), (3, 6), (3, 12)]
        assert cli.check_spectrum_verify(grid) is None


TENSOR_GRID = [(2, 2, 3), (2, 4, 3), (2, 2, 5), (3, 2, 3), (3, 4, 3)]


def test_criterion_5_tensor_lemma(capsys):
    with capsys.disabled(), criterion(
        5, "B_{n,m1*m2} ~ B_{n,m1} (x) B_{n,m2} for the five listed cases"
    ):
        assert cli.check_tensor(TENSOR_GRID) is None
    for n, m1, m2 in TENSOR_GRID:
        assert main(["tensor-check", "-n", str(n), "--m1", str(m1), "--m2", str(m2)]) == 0
        capsys.readouterr()


def test_criterion_5_builds_no_B(monkeypatch, capsys):
    # the lemma is proved from A: P A P^T = A1 (x) A2 gives P B P^T = B1 (x) B2
    def refused(*args):
        raise AssertionError("the tensor lemma built a B")

    monkeypatch.setattr(cli, "build_B_product", refused)
    monkeypatch.setattr(cli, "_build_b", refused)
    assert main(["tensor-check", "-n", "3", "--m1", "2", "--m2", "9"]) == 0
    assert capsys.readouterr().out == "PASS: B_{3,18} ~ B_{3,2} (x) B_{3,9}\n"
    assert cli.check_tensor(TENSOR_GRID) is None


def test_criterion_5_catches_one_flipped_pair_of_A(monkeypatch, capsys):
    # A_{3,12} with one symmetric pair of entries flipped, so it stays symmetric
    real = cli.build_A

    def flipped(space):
        a = real(space)
        if (space.n, space.m.value) != (3, 12):
            return a
        data = a.array.copy()
        data[0, 5] ^= 1
        data[5, 0] ^= 1
        return ExactMatrix(data, space)

    monkeypatch.setattr(cli, "build_A", flipped)
    assert main(["tensor-check", "-n", "3", "--m1", "4", "--m2", "3"]) == cli.EXIT_MISMATCH
    assert capsys.readouterr().out == "FAIL: B_{3,12} ~ B_{3,4} (x) B_{3,3}\n"
    assert cli.check_tensor(TENSOR_GRID) == (3, 4, 3)
    assert main(["tensor-check", "-n", "2", "--m1", "4", "--m2", "3"]) == cli.EXIT_OK


def test_criterion_6_count_2x2_exhaustion(capsys):
    with capsys.disabled(), criterion(
        6, "2x2 closed-form count equals brute force for p^e in {2,3,4,5,8,9}",
        budget=120.0,
    ):
        assert cli.check_count_2x2([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]) is None


def _batched_layer_counts(space, p, e, g):
    """Exhaustive layer scan for every point pair at once (oracle)."""
    q = p**e
    values = np.arange(0, q, p**g, dtype=np.int64)
    grid = np.array(
        list(itertools.product(values, repeat=space.n)), dtype=np.int64
    )
    coords = np.array([pt.coords for pt in space.points], dtype=np.int64)
    hits = ((grid @ coords.T) % q == 0)
    return hits.T.astype(np.int64) @ hits.astype(np.int64)


LAYER_GRID = [(3, 2, 2), (3, 2, 3), (2, 3, 2), (3, 3, 2)]


def test_criterion_7_layer_exhaustion(capsys):
    with capsys.disabled(), criterion(
        7, "layer counts equal brute-force scans on P_{3,4}, P_{3,8}, P_{2,9} (+P_{3,9})"
    ):
        for n, p, e in LAYER_GRID:
            space = enumerate_space(n, p**e)
            for g in range(e + 1):
                scan = _batched_layer_counts(space, p, e, g)
                spec = LayerSpec(g=g, p=p, e=e, n=n)
                for i, u in enumerate(space.points):
                    for j, v in enumerate(space.points):
                        assert count_layer(u, v, spec) == int(scan[i, j]), (n, p, e, g, i, j)
        # the public scalar oracle directly, on the pairs of about 8 points per space
        strided = [(n, p, e, max(1, theta(n, p**e) // 8)) for n, p, e in LAYER_GRID]
        assert cli.check_layer_counts(strided) is None


def test_criterion_8_eigenvector_families(capsys):
    with capsys.disabled(), criterion(
        8, "every exhibited eigenvector family has zero residual and full claimed rank"
    ):
        # prime case: the family's all-ones column 0 and the difference
        # columns e_i - e_last after it
        space32, b32 = B_of(3, 2)
        v32 = eigvec_family_general(space32).matrix().array
        ones = v32[:, 0].tolist()
        assert ones == [1] * theta(3, 2)
        assert b32.matvec(ones) == [9 * x for x in ones]
        rd = ExactMatrix(v32[:, 1:])
        assert rd.to_lists() == [[int(i == j) - int(i == rd.rows - 1) for j in range(rd.cols)]
                                 for i in range(rd.rows)]
        for j in range(rd.cols):
            col = [rd[i, j] for i in range(rd.rows)]
            assert b32.matvec(col) == [2 * x for x in col]
        assert exact_rank(rd) == theta(3, 2) - 1

        # e >= 2: difference vectors over the K-partition, the classes of
        # the k-grouped space
        space34, b34 = B_of(3, 4, "k-grouped")
        diffs = eigvec_differences(space34)
        assert diffs.cols == (2**2 - 1) * theta(3, 2) == 21
        for j in range(diffs.cols):
            col = [diffs[i, j] for i in range(diffs.rows)]
            assert b34.matvec(col) == [4 * x for x in col]
        assert exact_rank(diffs) == 21

        # the full families of B_{3,4} (one prime power, so the general family
        # is the prime-power one) and of B_{3,6} (a CRT tensor family): the
        # eigenbasis certificate proves exactly the claimed multiplicities
        family = eigvec_family_general(enumerate_space(3, 4))
        assert list(zip(family.tags, family.matrix().array.T.tolist())) == (
            eigvec_family_prime_power(3, 2, 2)[1]
        )
        assert cli.check_eigenvectors([(3, 4), (3, 6)]) is None
        # the certificate proves the rank of V from the family's labels;
        # elimination is the independent oracle, on a prime power with two
        # levels and on Kronecker folds
        for n, m in [(3, 4), (3, 6), (3, 12)]:
            v = eigvec_family_general(enumerate_space(n, m)).matrix()
            assert exact_rank(v) == v.rows == theta(n, m)


def test_criterion_9_structural_properties(capsys):
    with capsys.disabled(), criterion(
        9, "orbit sizes, row sums, fiber sizes, and the block identity"
    ):
        # row sums of A = theta(n-1, m)
        for n, m in [(3, 2), (3, 4), (3, 6), (2, 9), (4, 2)]:
            space = enumerate_space(n, m)
            assert build_A(space).array.sum(axis=1).tolist() == [theta(n - 1, m)] * len(space)

        # fiber sizes p^(n-1) and the primitive-tuple fiber count
        for p, e, n in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
            base = enumerate_space(n, p ** (e - 1))
            for v in base.points:
                assert len(fiber(v, p, e, n)) == p ** (n - 1)
            v0 = base.points[0]
            assert rho_fiber_size(v0, p, e, n) == p**n * euler_phi(p ** (e - 1))

        # point counts and orbit sizes = phi(m); the block identity over the
        # listed parameter triples, up to (3, 5, 2): theta 775, l = 25
        points = [(3, 4, 28), (2, 6, 12), (2, 9, 12), (3, 6, 91)]
        blocks = [(3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2), (3, 5, 2)]
        assert cli.check_structure((points, blocks)) is None
