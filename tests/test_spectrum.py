import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_matrices import _traced_peak

from zmspec import spectrum
from zmspec.errors import DomainError
from zmspec.matrices import (
    ExactMatrix,
    _entry_table,
    build_A,
    build_B_product,
)
from zmspec.modular import Modulus
from zmspec.projective import delta_map, enumerate_space, theta
from zmspec.spectrum import (
    SpectrumRow,
    SpectrumTable,
    _bareiss_rank,
    _rank_mod_p,
    eigenbasis_nullities,
    eigvec_differences,
    eigvec_family_general,
    eigvec_family_prime_power,
    exact_nullity,
    exact_rank,
    spectrum_general,
    spectrum_prime_power,
    verify_spectrum,
)


def B_of(n, m):
    space = enumerate_space(n, m)
    return space, build_B_product(build_A(space))


def rank_oracle(data):
    """Independent rank computation: Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in data]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / pr[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
        col += 1
    return rank


# -------------------- tables --------------------


def test_prime_power_table_examples():
    assert spectrum_prime_power(3, 2, 1).merged() == ((9, 1), (2, 6))
    assert spectrum_prime_power(3, 2, 2).merged() == ((36, 1), (8, 6), (4, 21))
    # at n = 2 all rows collapse to eigenvalue 1
    assert spectrum_prime_power(2, 2, 2).merged() == ((1, 6),)


def test_prime_case_has_two_rows_only():
    table = spectrum_prime_power(3, 5, 1)
    assert len(table.rows) == 2
    assert table.rows[0].multiplicity == 1
    assert table.rows[1].multiplicity == theta(3, 5) - 1


def test_multiplicity_sum_identity():
    for n, p, e in [(2, 2, 4), (3, 2, 3), (3, 3, 2), (4, 2, 2), (5, 2, 2), (3, 5, 2)]:
        table = spectrum_prime_power(n, p, e)
        assert table.total_multiplicity == theta(n, p**e)


def test_merged_strictly_decreasing_for_n_at_least_3():
    for n, p, e in [(3, 2, 3), (3, 3, 2), (4, 2, 2), (4, 3, 1)]:
        merged = spectrum_prime_power(n, p, e).merged()
        assert all(a[0] > b[0] for a, b in zip(merged, merged[1:]))


def test_general_table_examples():
    table = spectrum_general(3, 6)
    assert table.merged() == ((144, 1), (32, 6), (27, 12), (6, 72))
    assert table.total_multiplicity == 91 == theta(3, 6)

    assert spectrum_general(3, 4).merged() == spectrum_prime_power(3, 2, 2).merged()
    assert spectrum_general(2, 6).merged() == ((1, 12),)


def test_table_rejects_wrong_total():
    with pytest.raises(DomainError):
        SpectrumTable(n=3, m=2, rows=(SpectrumRow(9, 1, "x"),))
    with pytest.raises(DomainError):
        SpectrumTable(n=3, m=Modulus(1009**3, ((1009, 3),)), rows=(SpectrumRow(9, 1, "x"),))


def test_tables_past_the_factorization_bound():
    # p^e = 1009^3 > 10^9 is never factorized: the tables use the given
    # factorization, where they once raised "exceeds the factorization bound"
    p = 1009
    mod = Modulus(p**3, ((p, 3),))
    table = spectrum_prime_power(3, p, 3)
    assert table.m == p**3 and table.total_multiplicity == theta(3, mod)
    assert [(r.eigenvalue, r.multiplicity) for r in table.rows] == [
        (p**4 * (p + 1) ** 2, 1), (p**5, p**2 + p), (p**4, (p**2 - 1) * (p**2 + p + 1)),
        (p**3, (p**2 - 1) * p**2 * (p**2 + p + 1))]
    both = spectrum_general(3, Modulus(2 * p**3, ((2, 1), (p, 3))))
    assert both.m == 2 * p**3 and len(both.rows) == 2 * 4
    assert both.total_multiplicity == theta(3, 2) * theta(3, mod)
    # phi(p^3) = p^2 (p - 1): the entries over nu = 0..3 for n = 3
    assert _entry_table(p, 3, 3) == [1, p, p**2, p**2 * (p + 1)]


# -------------------- exact rank / nullity --------------------


def test_exact_nullity_examples():
    _, b32 = B_of(3, 2)
    assert exact_nullity(b32, 2) == 6
    assert exact_nullity(b32, 9) == 1
    assert exact_nullity(b32, 5) == 0
    assert exact_nullity(ExactMatrix.identity(5), 1) == 5


def test_exact_nullity_of_a_non_eigenvalue_is_proved_mod_p(monkeypatch):
    _, b32 = B_of(3, 2)

    def no_bareiss(data):
        raise AssertionError("Bareiss ran")

    monkeypatch.setattr(spectrum, "_bareiss_rank", no_bareiss)
    assert exact_nullity(b32, 5) == 0


def test_exact_nullity_accepts_numpy_integers():
    _, b32 = B_of(3, 2)
    for lam in (2, 9, 5):
        assert exact_nullity(b32, np.int64(lam)) == exact_nullity(b32, lam)


def test_exact_rank_small_cases():
    assert exact_rank(ExactMatrix([[1, 2], [2, 4]])) == 1
    assert exact_rank(ExactMatrix.zeros(3, 4)) == 0
    assert exact_rank(ExactMatrix.identity(4)) == 4
    assert exact_rank(ExactMatrix([[2, 0, 1], [0, 3, 1]])) == 2
    assert exact_rank(ExactMatrix([[2**70, 1], [1, 0]])) == 2  # object dtype


def test_exact_rank_against_fraction_oracle():
    rng = random.Random(1729)
    for trial in range(40):
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        data = [[rng.randrange(-5, 6) for _ in range(c)] for _ in range(r)]
        # plant dependent rows occasionally
        if r >= 2 and trial % 3 == 0:
            data[-1] = [2 * x for x in data[0]]
        assert exact_rank(ExactMatrix(data)) == rank_oracle(data)


# -------------------- verification --------------------


def test_verify_spectrum_passes():
    _, b34 = B_of(3, 4)
    report = verify_spectrum(b34, spectrum_prime_power(3, 2, 2))
    assert report.all_ok
    assert {c.eigenvalue: c.computed for c in report.entries} == {36: 1, 8: 6, 4: 21}

    _, b32 = B_of(3, 2)
    report32 = verify_spectrum(b32, spectrum_prime_power(3, 2, 1))
    assert report32.all_ok
    assert b32.trace() == 21 == 9 * 1 + 2 * 6


def test_verify_spectrum_negative_control():
    _, b32 = B_of(3, 2)
    bogus = SpectrumTable(
        n=3, m=2, rows=(SpectrumRow(9, 1, "s=1"), SpectrumRow(3, 6, "s=2"))
    )
    report = verify_spectrum(b32, bogus)
    assert not report.all_ok
    failed = {c.eigenvalue: c for c in report.entries}
    assert not failed[3].ok and failed[3].computed == 0
    assert not report.trace_ok


def test_report_json_schema():
    _, b = B_of(3, 2)
    report = verify_spectrum(b, spectrum_prime_power(3, 2, 1))
    obj = json.loads(report.to_json())
    assert set(obj) == {
        "n", "m", "theta", "entries", "trace_ok", "trace_sq_ok", "dimension_ok", "all_ok"
    }
    assert obj["entries"][0]["lambda"] == "9"
    assert [e["method"] for e in obj["entries"]] == ["eigenbasis", "eigenbasis"]
    assert obj["all_ok"] is True
    assert obj["theta"] == 7


def _perturbed(table):
    """Move one unit of multiplicity from the second merged row to the
    first; the total stays theta, so only the nullities can tell."""
    (lam1, d1), (lam2, d2), *rest = table.merged()
    rows = [SpectrumRow(lam1, d1 + 1, "a"), SpectrumRow(lam2, d2 - 1, "b")]
    rows += [SpectrumRow(lam, d, "c") for lam, d in rest]
    return SpectrumTable(n=table.n, m=table.m, rows=tuple(rows))


def _force_family(monkeypatch, family):
    monkeypatch.setattr(spectrum, "eigvec_family_general", lambda space: family)


def _assert_decided_by_bareiss(b, table):
    """The certificate declined; Bareiss verifies the true table and
    rejects the perturbed one."""
    report = verify_spectrum(b, table)
    assert report.all_ok
    assert {c.method for c in report.entries} == {"bareiss"}
    wrong = verify_spectrum(b, _perturbed(table))
    assert not wrong.all_ok
    assert {c.method for c in wrong.entries} == {"bareiss"}


@pytest.mark.parametrize("n,m", [(3, 6), (3, 8), (3, 9), (4, 4), (2, 12), (2, 15)])
def test_eigenbasis_certificate_agrees_with_bareiss(n, m):
    _, b = B_of(n, m)
    report = verify_spectrum(b, spectrum_general(n, m))
    assert report.all_ok
    for c in report.entries:
        assert c.method == "eigenbasis"
        assert c.computed == exact_nullity(b, c.eigenvalue), (n, m, c)


def test_perturbed_table_fails_under_both_routes(monkeypatch):
    _, b = B_of(3, 6)
    table = _perturbed(spectrum_general(3, 6))
    truth = dict(spectrum_general(3, 6).merged())

    certified = verify_spectrum(b, table)
    assert not certified.all_ok
    assert {c.method for c in certified.entries} == {"eigenbasis"}

    _force_family(monkeypatch, replace(eigvec_family_general(enumerate_space(3, 6)), tags=()))
    fallback = verify_spectrum(b, table)
    assert not fallback.all_ok
    assert {c.method for c in fallback.entries} == {"bareiss"}

    for report in (certified, fallback):
        assert {c.eigenvalue: c.computed for c in report.entries} == truth
        assert [c.ok for c in report.entries] == [False, False, True, True]


def test_certificate_declines_on_k_grouped_matrix():
    space = enumerate_space(3, 4, "k-grouped")
    b = build_B_product(build_A(space))
    table = spectrum_general(3, 4)
    assert eigenbasis_nullities(b, eigvec_family_general(enumerate_space(3, 4))) is None
    # verify_spectrum builds the family over the space of b's row labels
    report = verify_spectrum(b, table)
    assert report.all_ok and {c.method for c in report.entries} == {"eigenbasis"}
    assert all(c.computed == exact_nullity(b, c.eigenvalue) for c in report.entries)
    # the same rows without labels meet the lex family, and Bareiss decides
    _assert_decided_by_bareiss(ExactMatrix(b.array), table)


def test_verify_falls_back_on_labels_that_are_not_the_points():
    _, b = B_of(3, 4)
    # the points in an order that is not the matrix's: the family follows
    # the labels, the certificate declines, and Bareiss decides
    shuffled = enumerate_space(3, 4, "k-grouped")
    _assert_decided_by_bareiss(ExactMatrix(b.array, shuffled, shuffled), spectrum_general(3, 4))


def _with_levels(family, *levels):
    """The family with the levels of its first factor replaced."""
    return replace(family, levels=(tuple(levels), *family.levels[1:]))


def _crossing_difference(family):
    """One point's level-2 label moved into a class under another level-1
    label, so the levels do not nest and that class's difference column
    crosses two fibers."""
    level1, level2, *above = family.levels[0]
    moved = level2.copy()
    moved[0] = level2[np.argmax(level1 != level1[0])]
    return _with_levels(family, level1, moved, *above)


def _base_position_not_onto(family):
    """The last level-1 label renumbered one higher, so a label id is
    skipped and the level-2 classes do not reach every level-1 label."""
    level1, *above = family.levels[0]
    skipped = level1.copy()
    skipped[skipped == skipped.max()] += 1
    return _with_levels(family, skipped, *above)


def _crt_slot_used_twice(family):
    """Point 1 given the labels of point 0 in every factor, so two points
    have the same joint top labels."""
    levels = []
    for labels in family.levels:
        top = labels[-1].copy()
        top[1] = top[0]
        levels.append((*labels[:-1], top))
    return replace(family, levels=tuple(levels))


def _repeated_level(family):
    """The top level replaced by the level below it: V keeps the lifted
    columns only, and the label counts multiply to less than the order."""
    *below, _ = family.levels[0]
    return _with_levels(family, *below, below[-1])


@pytest.mark.parametrize(
    "n, m, corrupt",
    [(3, 8, _crossing_difference), (3, 4, _base_position_not_onto), (3, 6, _crt_slot_used_twice)],
    ids=["crossing-difference", "base-position-not-onto", "crt-slot-used-twice"],
)
def test_certificate_declines_on_a_corrupted_description(monkeypatch, n, m, corrupt):
    space, b = B_of(n, m)
    family = corrupt(eigvec_family_general(space))
    # refused by the label checks, before any residual is formed
    assert not spectrum._proves_full_rank(family, len(space))
    assert eigenbasis_nullities(b, family) is None
    _force_family(monkeypatch, family)
    _assert_decided_by_bareiss(b, spectrum_general(n, m))


def test_certificate_declines_on_corrupted_vector(monkeypatch):
    # descriptions that pass the rank checks, with columns that are not
    # eigenvectors: a wrong tag, and the mod-3 top labels of two points
    # with one mod-2 label swapped, which swaps two rows of V; only the
    # residual declines
    space, b = B_of(3, 4)
    family = eigvec_family_general(space)
    wrong_tag = replace(family, tags=family.tags[:5] + family.tags[:1] + family.tags[6:])
    assert wrong_tag.tags[5] != family.tags[5]
    assert eigenbasis_nullities(b, wrong_tag) is None

    space6, b6 = B_of(3, 6)
    family6 = eigvec_family_general(space6)
    (mod2,), (mod3,) = family6.levels
    pair = [0, np.argmax((mod2 == mod2[0]) & (mod3 != mod3[0]))]
    swapped_labels = mod3.copy()
    swapped_labels[pair] = mod3[pair[::-1]]
    swapped = replace(family6, levels=((mod2,), (swapped_labels,)))
    rows = np.arange(91)
    rows[pair] = rows[pair[::-1]]
    assert spectrum._proves_full_rank(swapped, 91)
    assert np.array_equal(swapped.matrix().array, family6.matrix().array[rows])
    assert exact_rank(swapped.matrix()) == 91
    assert eigenbasis_nullities(b6, swapped) is None

    _force_family(monkeypatch, wrong_tag)
    _assert_decided_by_bareiss(b, spectrum_general(3, 4))


def test_certificate_declines_on_a_repeated_level(monkeypatch):
    space, b = B_of(3, 4)
    family = _repeated_level(eigvec_family_general(space))
    v = family.matrix()
    # every column is still an eigenvector, so only the rank check can decline
    assert v.cols == 7 and exact_rank(v) == 7 < v.rows
    assert np.array_equal((b @ v).array, v.array * np.array(family.tags[: v.cols]))
    assert not spectrum._proves_full_rank(family, len(space))
    assert eigenbasis_nullities(b, family) is None
    _force_family(monkeypatch, family)
    _assert_decided_by_bareiss(b, spectrum_general(3, 4))


def test_certificate_is_exact_past_the_int64_bound():
    space, b = B_of(3, 2)
    family = eigvec_family_general(space)
    assert eigenbasis_nullities(b, family) == {9: 1, 2: 6}
    # B and the tags scaled by 2^60: the residual runs on Python ints
    big = b * (1 << 60)
    assert (big @ family.matrix()).array.dtype == object
    scaled = replace(family, tags=tuple(lam << 60 for lam in family.tags))
    assert eigenbasis_nullities(big, scaled) == {9 << 60: 1, 2 << 60: 6}
    # V is still invertible here, so the residual, on Python ints, declines
    huge = replace(family, tags=tuple(lam << 61 for lam in family.tags))
    assert eigenbasis_nullities(big, huge) is None
    # orders that do not match: a tag short, and labels of another order
    assert eigenbasis_nullities(b, replace(family, tags=family.tags[:-1])) is None
    assert eigenbasis_nullities(b, replace(family, levels=((np.arange(8),),))) is None


def test_certificate_holds_no_float_copy_of_B():
    # the residual B V = V D once ran on a float32 copy of B kept with B,
    # 4 theta^2 bytes, and peaked at 7.8 theta^2 bytes at (3,32); its tiles
    # hold V, its transpose and two float32 row panels of theta/5 rows
    space, b = B_of(3, 32)
    family = eigvec_family_general(space)
    nullities = {}
    peak = _traced_peak(lambda fam: nullities.update(eigenbasis_nullities(b, fam)), family)
    assert nullities == dict(spectrum_general(3, 32).merged())
    assert peak <= 5 * len(space) ** 2
    assert b._float is None


@pytest.mark.parametrize("n, m", [(3, 6), (3, 8), (4, 4), (3, 12), (2, 12)])
def test_certificate_runs_no_elimination(monkeypatch, n, m):
    # prime powers, lifts and Kronecker folds: every row is proved from the
    # family's labels, with both elimination kernels unavailable
    def refuse(*args):
        raise AssertionError("the certificate ran an elimination")

    _, b = B_of(n, m)
    monkeypatch.setattr(spectrum, "_rank_mod_p", refuse)
    monkeypatch.setattr(spectrum, "_bareiss_rank", refuse)
    report = verify_spectrum(b, spectrum_general(n, m))
    assert report.all_ok
    assert {c.method for c in report.entries} == {"eigenbasis"}


@settings(derandomize=True, max_examples=100)
@given(
    st.sampled_from([2, 5, 2**31 - 1]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_rank_mod_p_ignores_column_order(p, rows, cols, data):
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    order = data.draw(st.permutations(range(cols)))
    arr = np.array(entries, dtype=np.int64).reshape(rows, cols)
    before = arr.copy()
    assert _rank_mod_p(arr[:, order], p) == _rank_mod_p(arr, p)
    assert np.array_equal(arr, before)


def test_exact_rank_of_a_prime_family_within_budget():
    # elimination sparsest column first: the all-ones column comes last
    v = eigvec_family_general(enumerate_space(3, 31)).matrix()
    budget = 1.0
    start = time.perf_counter()
    assert exact_rank(v) == v.rows == 993
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"exact_rank took {elapsed:.2f} s, budget {budget} s"


def test_eigenbasis_certificate_within_budget():
    # the residual B V_lambda runs as float32 BLAS products: B_{3,32} has
    # max|B| * max|V| * theta = 48 * 1 * 1792, far below 2^24
    space, b = B_of(3, 32)
    family = eigvec_family_general(space)
    budget = 2.0
    start = time.perf_counter()
    assert eigenbasis_nullities(b, family) == dict(spectrum_general(3, 32).merged())
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"eigenbasis_nullities took {elapsed:.2f} s, budget {budget} s"


def test_rank_mod_p_against_fraction_oracle():
    rng = random.Random(31)
    p = 2**31 - 1
    for trial in range(60):
        k = rng.randrange(1, 7)
        data = [[rng.randrange(-1, 2) for _ in range(k)] for _ in range(k)]
        if k >= 2 and trial % 3 == 0:
            data[-1] = [a - b for a, b in zip(data[0], data[1])]
        arr = np.array(data, dtype=np.int64)
        assert (_rank_mod_p(arr, p) == k) == (rank_oracle(data) == k)
        assert arr.tolist() == data  # the input is not modified
    # singular mod 5 only: the certificate's one-sided direction
    assert _rank_mod_p(np.array([[5]]), 5) == 0
    assert _rank_mod_p(np.array([[5]]), p) == 1


def test_rank_mod_p_rectangular_and_deficient():
    rng = random.Random(32)
    for trial in range(60):
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        data = [[rng.randrange(-5, 6) for _ in range(c)] for _ in range(r)]
        if r >= 2 and trial % 2 == 0:
            data[-1] = [a + 2 * b for a, b in zip(data[0], data[1 % (r - 1)])]
        arr = np.array(data, dtype=np.int64)
        truth = rank_oracle(data)
        assert _rank_mod_p(arr, 5) <= truth
        # Hadamard: every minor is at most 15 sqrt(6) * (5 sqrt(6))^5 < 2^24
        # in size, so no nonzero minor vanishes mod p and the ranks agree
        assert _rank_mod_p(arr, 2**31 - 1) == truth
        assert arr.tolist() == data
    # Python-int entries are reduced mod p before the int64 cast
    big = np.array([[2**70, 1], [1, 0]], dtype=object)
    assert _rank_mod_p(big, 2**31 - 1) == 2
    assert big.tolist() == [[2**70, 1], [1, 0]]
    assert _rank_mod_p(np.zeros((3, 0), dtype=np.int64), 5) == 0


def test_exact_rank_of_narrow_storage():
    # A_{3,4} is stored as int8 and 1000 * B_{3,4} as int16, where reducing
    # mod 2^31 - 1 in place would overflow; B - 4I, of nullity 21, and its
    # int16 multiple reach Bareiss
    a = build_A(enumerate_space(3, 4))
    b = build_B_product(a)
    shifted = b - 4 * ExactMatrix.identity(b.rows)
    for m, dtype in ((a, np.int8), (1000 * b, np.int16), (shifted, np.int8),
                     (1000 * shifted, np.int16)):
        assert m.array.dtype == dtype
        assert exact_rank(m) == _bareiss_rank(m.to_lists())
    assert exact_rank(a) == exact_rank(1000 * b) == 28
    assert exact_rank(1000 * shifted) == 28 - 21


P31 = 2**31 - 1


@pytest.mark.parametrize(
    "data, rank",
    [
        ([[P31]], 1),
        ([[1, 0], [0, P31]], 2),
        ([[2, 1], [1, 2**30]], 2),  # determinant 2^31 - 1
        ([[1, 1], [0, P31], [1, 1]], 2),  # columns equal mod p only
        ([[P31 << 40, 1], [0, P31]], 2),  # object dtype, determinant p^2 2^40
    ],
)
def test_exact_rank_falls_back_when_p_divides_every_maximal_minor(data, rank):
    m = ExactMatrix(data)
    assert _rank_mod_p(m.array, P31) < rank  # so only Bareiss can answer
    assert exact_rank(m) == rank == rank_oracle(data)


@pytest.mark.parametrize("n, p, e", [(3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 2), (3, 3, 2)])
def test_exact_rank_agrees_with_bareiss_on_families(monkeypatch, n, p, e):
    space, family = eigvec_family_prime_power(n, p, e)
    size = len(space)
    full = ExactMatrix([[vec[i] for _, vec in family] for i in range(size)])
    singular = full.to_lists()
    for row in singular:
        row[0] = row[1]
    singular = ExactMatrix(singular)
    assert _bareiss_rank(full.to_lists()) == size
    assert _bareiss_rank(singular.to_lists()) == size - 1

    calls = []

    def counted(data):
        calls.append(len(data))
        return _bareiss_rank(data)

    monkeypatch.setattr(spectrum, "_bareiss_rank", counted)
    assert exact_rank(full) == size
    assert calls == []  # decided by the rank mod p
    assert exact_rank(singular) == size - 1
    assert calls == [size]  # decided by Bareiss


def test_verify_rejects_mismatched_order():
    _, b = B_of(3, 2)
    with pytest.raises(DomainError):
        verify_spectrum(b, spectrum_prime_power(3, 2, 2))


# -------------------- eigenvector families --------------------


def _difference_columns(space):
    """Columns 1..theta-1 of the family over a prime m, with their tags."""
    family = eigvec_family_general(space)
    return ExactMatrix(family.matrix().array[:, 1:]), family.tags[1:]


def test_all_ones_eigenvector():
    # column 0 of every family is the all-ones vector, tagged with the row sum
    for (n, m), top in (((3, 2), 9), ((3, 4), 36), ((2, 2), 1)):
        space, b = B_of(n, m)
        family = eigvec_family_general(space)
        ones = family.matrix().array[:, 0].tolist()
        assert ones == [1] * len(space) and family.tags[0] == top
        assert b.matvec(ones) == [top] * len(space)


def test_R_d_columns():
    space, b = B_of(3, 2)
    rd, tags = _difference_columns(space)
    # e_i - e_last: the identity over a row of -1
    assert rd.to_lists() == np.vstack([np.eye(6, dtype=int), -np.ones((1, 6), int)]).tolist()
    assert tags == (2,) * 6
    for j in range(6):
        col = [rd[i, j] for i in range(7)]
        assert b.matvec(col) == [2 * x for x in col]
    assert exact_rank(rd) == 6

    space23, b23 = B_of(2, 3)
    rd23, tags23 = _difference_columns(space23)
    assert rd23.cols == 3 and tags23 == (1,) * 3
    for j in range(rd23.cols):
        col = [rd23[i, j] for i in range(rd23.rows)]
        assert b23.matvec(col) == col  # eigenvalue 3^0 = 1


def test_difference_vectors():
    space = enumerate_space(3, 4, "k-grouped")
    b = build_B_product(build_A(space))
    diffs = eigvec_differences(space)
    assert diffs.cols == 21 == (2**2 - 1) * theta(3, 2)
    for j in range(diffs.cols):
        col = [diffs[i, j] for i in range(diffs.rows)]
        nonzero = [x for x in col if x]
        assert sorted(nonzero) == [-1, 1]
        assert b.matvec(col) == [4 * x for x in col]
    assert exact_rank(diffs) == 21
    # column c pairs row c of K_1, K_2 or K_3 with the row of K_4 over the
    # same base point, 21 + c mod 7
    assert [np.flatnonzero(col).tolist() for col in diffs.array.T[:8]] == [
        [0, 21], [1, 22], [2, 23], [3, 24], [4, 25], [5, 26], [6, 27], [7, 21]]
    with pytest.raises(DomainError, match="k-grouped"):
        eigvec_differences(enumerate_space(3, 4))


@pytest.mark.parametrize("n, m", [(3, 4), (3, 8), (3, 9), (4, 4)])
def test_top_level_spans_the_fiber_differences(n, m):
    # eigvec_differences over the k-grouped space is the reference for the
    # top level of the family built on the same space: its columns, tagged
    # p^(e(n-2)), span one space
    space = enumerate_space(n, m, "k-grouped")
    p, e = space.m.prime_power()
    family = eigvec_family_general(space)
    top = ExactMatrix(family.matrix().array[:, np.array(family.tags) == p ** (e * (n - 2))])
    reference = eigvec_differences(space)
    both = ExactMatrix(np.hstack([top.array, reference.array]))
    assert exact_rank(top) == exact_rank(reference) == exact_rank(both) == reference.cols


def test_lift_examples():
    # the first theta(3,2) columns of the (3,4) family lift the (3,2) family
    space4, b4 = B_of(3, 4)
    space2 = enumerate_space(3, 2)
    family2 = eigvec_family_general(space2)
    tags2, v2 = family2.tags, family2.matrix()
    family4 = eigvec_family_general(space4)
    tags4, v4 = family4.tags, family4.matrix()
    lifted = v4.array[:, : v2.cols]
    assert lifted[:, 0].tolist() == [1] * 28  # lift of all-ones is all-ones
    for x, pt in enumerate(space4.points):
        base = space2.position(delta_map(pt, 2, 2))
        assert lifted[x].tolist() == v2.array[base].tolist()
    assert tags4[: v2.cols] == tuple(2**2 * lam for lam in tags2) == (36,) + (8,) * 6
    assert np.array_equal((b4 @ ExactMatrix(lifted)).array, lifted * np.array(tags4[:7]))
    assert exact_rank(ExactMatrix(lifted)) == v2.cols  # lifting preserves independence


def test_tensor_eigenvectors():
    _, b6 = B_of(3, 6)
    tags2 = eigvec_family_general(enumerate_space(3, 2)).tags
    tags3 = eigvec_family_general(enumerate_space(3, 3)).tags
    family6 = eigvec_family_general(enumerate_space(3, 6))
    tags6, v6 = family6.tags, family6.matrix()
    assert tags6 == tuple(a * b for a in tags2 for b in tags3)
    assert v6.array[:, 0].tolist() == [1] * 91  # all-ones (x) all-ones
    assert tags6[:2] == (144, 27)  # 9 * 16, and 9 * 3 for ones (x) a difference column
    assert np.array_equal((b6 @ v6).array, v6.array * np.array(tags6))


def test_full_family_general():
    for n, m in [(3, 6), (2, 30), (3, 4)]:
        family = eigvec_family_general(enumerate_space(n, m))
        tags, v = family.tags, family.matrix()
        _, b = B_of(n, m)
        assert len(tags) == v.rows == v.cols == theta(n, m)
        assert v.array.dtype == np.int8
        assert np.array_equal((b @ v).array, v.array * np.array(tags))
        assert Counter(tags) == dict(spectrum_general(n, m).merged())
    # a prime power is its own factor family, and the list form is its view
    family = eigvec_family_general(enumerate_space(3, 4))
    assert list(zip(family.tags, family.matrix().array.T.tolist())) == (
        eigvec_family_prime_power(3, 2, 2)[1]
    )


@pytest.mark.parametrize("n, m", [(3, 4), (3, 8), (2, 9)])
def test_family_follows_a_k_grouped_space(n, m):
    space = enumerate_space(n, m, "k-grouped")
    b = build_B_product(build_A(space))
    family = eigvec_family_general(space)
    assert eigenbasis_nullities(b, family) == dict(spectrum_general(n, m).merged())
    # the lex family with its rows relabelled into the space's order
    lex = enumerate_space(n, m)
    lex_family = eigvec_family_general(lex)
    assert family.tags == lex_family.tags
    assert np.array_equal(family.matrix().array,
                          lex_family.matrix().array[lex.positions(space.coords)])


def _family_digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# sha256 of json [tags, rows of V].  The square-free ones were recorded from
# the list-building families of earlier releases, and the pair keeps their
# column order, signs and tags.  Where e >= 2, the difference columns of a
# level follow the order of its point keys, which the K-partitions of
# earlier releases did not; per tag, the columns span the same space.
FAMILY_DIGESTS = {
    (3, 4): "8208e461d9c8b7174afeda7ca338c54f1f56f005618eb9792df69b57f045c664",
    (3, 6): "308ddd83b7718b0c21ea652d2575092deacaca8c94b219dee3e5f7509c8db099",
    (2, 30): "37bfbfcfdac928fd985e1711a5c1def18520c9881595f63cea087df0b966e72a",
    (3, 12): "86b6ea849f0d792212ccd8d2fe4831b0b6825b7038c49fe30529d254d0d1f970",
    (4, 6): "7df1bd03a3f090e47df33bb7005aeaf4b5b34899ef774fab4292eb1fbd848ea1",
    (2, 105): "16043665588b4f42f6e1fd5f5c6dee5ef3d3fd1955966e910d2742a542eea5a6",
}


@pytest.mark.parametrize("n, m", list(FAMILY_DIGESTS))
def test_family_digest(n, m):
    family = eigvec_family_general(enumerate_space(n, m))
    tags, v = family.tags, family.matrix()
    assert type(tags) is tuple and all(type(lam) is int for lam in tags)
    assert _family_digest([list(tags), v.array.tolist()]) == FAMILY_DIGESTS[n, m]


def test_prime_power_family_list_digest():
    _, family = eigvec_family_prime_power(3, 2, 4)
    assert _family_digest([[lam, vec] for lam, vec in family]) == (
        "40021ebf3e974c3a6097fc6decc21fe33ea4fd942c8336401e0471af9a0173f8"
    )


@pytest.mark.parametrize("n, m", [(3, 12), (4, 6), (2, 105)])
def test_verify_is_certified_by_the_eigenbasis(n, m):
    _, b = B_of(n, m)
    report = verify_spectrum(b, spectrum_general(n, m))
    assert report.all_ok
    assert {c.method for c in report.entries} == {"eigenbasis"}


def test_full_family_prime_power():
    space, family = eigvec_family_prime_power(3, 2, 2)
    b = build_B_product(build_A(space))
    assert len(family) == 28
    for lam, vec in family:
        assert b.matvec(vec) == [lam * x for x in vec]
    stacked = ExactMatrix([[vec[i] for _, vec in family] for i in range(28)])
    assert exact_rank(stacked) == 28
    # per-eigenvalue counts match the table
    counts = {}
    for lam, _ in family:
        counts[lam] = counts.get(lam, 0) + 1
    assert counts == {36: 1, 8: 6, 4: 21}
