"""Acceptance suite: one test per criterion, one pass/fail line each.

Everything here is exact; there are no tolerances.  Run with -s to see
the per-criterion lines.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from zmspec.cli import main
from zmspec.counting import (
    LayerSpec,
    count_2x2,
    count_2x2_brute,
    count_layer,
    count_layer_brute,
)
from zmspec.matrices import (
    ExactMatrix,
    apply_simultaneous_permutation,
    block_C,
    block_C_reference,
    build_A,
    build_B_analytic,
    build_B_product,
    crt_permutation,
    tensor_product,
)
from zmspec.modular import euler_phi
from zmspec.projective import (
    enumerate_space,
    fiber,
    k_partition,
    orbit_size,
    point_label,
    rho_fiber_size,
    theta,
)
from zmspec.spectrum import (
    eigvec_R_d,
    eigvec_all_ones,
    eigvec_differences,
    eigvec_family_general,
    eigvec_family_prime_power,
    exact_rank,
    spectrum_general,
    spectrum_prime_power,
    verify_spectrum,
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
        space, b34 = B_of(3, 4, "k-grouped")
        assert [point_label(pt) for pt in space.points] == KGROUPED_B34_LABELS
        for i in range(28):
            for j in range(28):
                expect = 6 if i == j else (2 if i % 7 == j % 7 else 1)
                assert b34[i, j] == expect
        _, b32 = B_of(3, 2)
        assert all(b32[i, j] == (3 if i == j else 1) for i in range(7) for j in range(7))

    # the same grids through the CLI surface
    code = main(["matrix", "-n", "3", "-m", "4", "--which", "B",
                 "--ordering", "k-grouped", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].split()[0] == "(001)"
    values = [line.split()[1:] for line in rows]
    for i in range(28):
        for j in range(28):
            expect = 6 if i == j else (2 if i % 7 == j % 7 else 1)
            assert values[i][j] == str(expect)
    assert main(["matrix", "-n", "3", "-m", "2", "--which", "B"]) == 0
    rows32 = capsys.readouterr().out.strip().splitlines()
    assert rows32[0].split()[1:] == ["3", "1", "1", "1", "1", "1", "1"]


def test_criterion_2_dual_construction(capsys):
    with capsys.disabled(), criterion(
        2, "analytic entries equal the exact product on the prime-power grid",
        budget=120.0,
    ):
        for n, p, e in PRIME_POWER_GRID + EXTRA_DUAL_GRID:
            space = enumerate_space(n, p**e)
            assert build_B_analytic(space) == build_B_product(build_A(space)), (n, p, e)


def test_criterion_3_prime_power_spectra(capsys):
    with capsys.disabled(), criterion(
        3, "prime-power spectrum verified exactly on the grid"
    ):
        assert spectrum_prime_power(3, 2, 2).merged() == ((36, 1), (8, 6), (4, 21))
        assert spectrum_prime_power(3, 2, 1).merged() == ((9, 1), (2, 6))
        for n, p, e in PRIME_POWER_GRID:
            _, b = B_of(n, p**e)
            report = verify_spectrum(b, spectrum_prime_power(n, p, e))
            assert report.all_ok, (n, p, e, report.to_json())


def test_criterion_4_composite_spectra(capsys):
    with capsys.disabled(), criterion(
        4, "composite spectra verified (n=2: m in {6,10,12,15}; n=3: m in {6,12})",
        budget=300.0,
    ):
        table36 = spectrum_general(3, 6)
        assert table36.merged() == ((144, 1), (32, 6), (27, 12), (6, 72))
        assert table36.total_multiplicity == 91
        for n, m in [(2, 6), (2, 10), (2, 12), (2, 15), (3, 6), (3, 12)]:
            _, b = B_of(n, m)
            report = verify_spectrum(b, spectrum_general(n, m))
            assert report.all_ok, (n, m, report.to_json())


def test_criterion_5_tensor_lemma(capsys):
    with capsys.disabled(), criterion(
        5, "B_{n,m1*m2} ~ B_{n,m1} (x) B_{n,m2} for the five listed cases"
    ):
        for n, m1, m2 in [(2, 2, 3), (2, 4, 3), (2, 2, 5), (3, 2, 3), (3, 4, 3)]:
            perm = crt_permutation(n, m1, m2)
            _, big = B_of(n, m1 * m2)
            _, b1 = B_of(n, m1)
            _, b2 = B_of(n, m2)
            assert apply_simultaneous_permutation(big, perm) == tensor_product(b1, b2), (
                n, m1, m2,
            )
    for n, m1, m2 in [(2, 2, 3), (2, 4, 3), (2, 2, 5), (3, 2, 3), (3, 4, 3)]:
        assert main(["tensor-check", "-n", str(n), "--m1", str(m1), "--m2", str(m2)]) == 0
        capsys.readouterr()


def test_criterion_6_count_2x2_exhaustion(capsys):
    with capsys.disabled(), criterion(
        6, "2x2 closed-form count equals brute force for p^e in {2,3,4,5,8,9}",
        budget=120.0,
    ):
        for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
            q = p**e
            for a, b, c, d in itertools.product(range(q), repeat=4):
                assert count_2x2(a, b, c, d, p, e) == count_2x2_brute(a, b, c, d, p, e)


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


def test_criterion_7_layer_exhaustion(capsys):
    with capsys.disabled(), criterion(
        7, "layer counts equal brute-force scans on P_{3,4}, P_{3,8}, P_{2,9} (+P_{3,9})"
    ):
        for n, p, e in [(3, 2, 2), (3, 2, 3), (2, 3, 2), (3, 3, 2)]:
            space = enumerate_space(n, p**e)
            for g in range(e + 1):
                scan = _batched_layer_counts(space, p, e, g)
                spec = LayerSpec(g=g, p=p, e=e, n=n)
                for i, u in enumerate(space.points):
                    for j, v in enumerate(space.points):
                        assert count_layer(u, v, spec) == int(scan[i, j]), (n, p, e, g, i, j)
            # exercise the public scalar oracle directly on a sample of pairs
            pts = space.points
            for i in range(0, len(pts), max(1, len(pts) // 8)):
                for j in range(0, len(pts), max(1, len(pts) // 8)):
                    for g in range(e + 1):
                        spec = LayerSpec(g=g, p=p, e=e, n=n)
                        assert count_layer(pts[i], pts[j], spec) == count_layer_brute(
                            pts[i], pts[j], g
                        )


def _stacked(vectors):
    return ExactMatrix([[vec[i] for vec in vectors] for i in range(len(vectors[0]))])


def test_criterion_8_eigenvector_families(capsys):
    with capsys.disabled(), criterion(
        8, "every exhibited eigenvector family has zero residual and full claimed rank"
    ):
        # prime case: all-ones and the difference columns
        space32, b32 = B_of(3, 2)
        ones = eigvec_all_ones(space32)
        assert b32.matvec(ones) == [9 * x for x in ones]
        rd = eigvec_R_d(space32)
        for j in range(rd.cols):
            col = [rd[i, j] for i in range(rd.rows)]
            assert b32.matvec(col) == [2 * x for x in col]
        assert exact_rank(rd) == theta(3, 2) - 1

        # e >= 2: difference vectors over the partition
        part = k_partition(2, 2, 3)
        _, b34 = B_of(3, 4)
        diffs = eigvec_differences(part)
        assert diffs.cols == (2**2 - 1) * theta(3, 2) == 21
        for j in range(diffs.cols):
            col = [diffs[i, j] for i in range(diffs.rows)]
            assert b34.matvec(col) == [4 * x for x in col]
        assert exact_rank(diffs) == 21

        # full prime-power family of B_{3,4}: residuals, per-eigenvalue ranks, total rank
        space4, family4 = eigvec_family_prime_power(3, 2, 2)
        b4 = build_B_product(build_A(space4))
        by_lam = {}
        for lam, vec in family4:
            assert b4.matvec(vec) == [lam * x for x in vec]
            by_lam.setdefault(lam, []).append(vec)
        claimed4 = dict(spectrum_prime_power(3, 2, 2).merged())
        for lam, vecs in by_lam.items():
            assert exact_rank(_stacked(vecs)) == len(vecs) == claimed4[lam]
        assert exact_rank(_stacked([v for _, v in family4])) == 28

        # tensor family of B_{3,6}: residuals, per-eigenvalue ranks, total rank
        _, b6 = B_of(3, 6)
        by_lam6 = {}
        for lam, w in eigvec_family_general(3, 6):
            assert b6.matvec(w) == [lam * x for x in w]
            by_lam6.setdefault(lam, []).append(w)
        claimed6 = dict(spectrum_general(3, 6).merged())
        for lam, vecs in by_lam6.items():
            assert exact_rank(_stacked(vecs)) == len(vecs) == claimed6[lam]
        assert exact_rank(_stacked([w for ws in by_lam6.values() for w in ws])) == 91


def test_criterion_9_structural_properties(capsys):
    with capsys.disabled(), criterion(
        9, "orbit sizes, row sums, fiber sizes, and the block identity"
    ):
        # orbit sizes = phi(m)
        for n, m in [(3, 4), (2, 6), (2, 9), (3, 6)]:
            phi = euler_phi(m)
            assert all(orbit_size(pt) == phi for pt in enumerate_space(n, m).points)

        # row sums of A = theta(n-1, m)
        for n, m in [(3, 2), (3, 4), (3, 6), (2, 9), (4, 2)]:
            space = enumerate_space(n, m)
            assert build_A(space).row_sums() == [theta(n - 1, m)] * len(space)

        # fiber sizes p^(n-1) and the primitive-tuple fiber count
        for p, e, n in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
            base = enumerate_space(n, p ** (e - 1))
            for v in base.points:
                assert len(fiber(v, p, e, n)) == p ** (n - 1)
            v0 = base.points[0]
            assert rho_fiber_size(v0, p, e, n) == p**n * euler_phi(p ** (e - 1))

        # block identity over the four listed parameter triples
        for n, p, e in [(3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)]:
            part = k_partition(p, e, n)
            _, big = B_of(n, p**e)
            _, base_b = B_of(n, p ** (e - 1))
            for a in range(part.l):
                for b in range(part.l):
                    assert block_C(a, b, part, big) == block_C_reference(
                        a, b, part, base_b
                    ), (n, p, e, a, b)
