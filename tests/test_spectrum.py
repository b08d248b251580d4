import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from zmspec import spectrum
from zmspec.errors import DomainError
from zmspec.matrices import (
    ExactMatrix,
    build_A,
    build_B_product,
)
from zmspec.projective import enumerate_space, k_partition, theta
from zmspec.spectrum import (
    SpectrumRow,
    SpectrumTable,
    _bareiss_rank,
    _rank_mod_p,
    eigenbasis_nullities,
    eigvec_R_d,
    eigvec_all_ones,
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


# -------------------- exact rank / nullity --------------------


def test_exact_nullity_examples():
    _, b32 = B_of(3, 2)
    assert exact_nullity(b32, 2) == 6
    assert exact_nullity(b32, 9) == 1
    assert exact_nullity(b32, 5) == 0
    assert exact_nullity(ExactMatrix.identity(5), 1) == 5


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
    monkeypatch.setattr(
        spectrum, "eigvec_family_general", lambda n, m, guardrail=None: family
    )


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

    _force_family(monkeypatch, ((), ExactMatrix.zeros(0, 0)))
    fallback = verify_spectrum(b, table)
    assert not fallback.all_ok
    assert {c.method for c in fallback.entries} == {"bareiss"}

    for report in (certified, fallback):
        assert {c.eigenvalue: c.computed for c in report.entries} == truth
        assert [c.ok for c in report.entries] == [False, False, True, True]


def test_certificate_declines_on_k_grouped_matrix():
    space = enumerate_space(3, 4, "k-grouped")
    b = build_B_product(build_A(space))
    assert eigenbasis_nullities(b, eigvec_family_general(3, 4)) is None
    _assert_decided_by_bareiss(b, spectrum_general(3, 4))


def test_certificate_declines_on_corrupted_vector(monkeypatch):
    _, b = B_of(3, 4)
    tags, v = eigvec_family_general(3, 4)
    data = v.array.copy()
    i = np.flatnonzero(data[:, 5])[0]
    data[i, 5] = -data[i, 5]
    family = (tags, ExactMatrix(data))
    assert eigenbasis_nullities(b, family) is None
    _force_family(monkeypatch, family)
    _assert_decided_by_bareiss(b, spectrum_general(3, 4))


def test_certificate_declines_on_duplicated_column(monkeypatch):
    _, b = B_of(3, 4)
    tags, v = eigvec_family_general(3, 4)
    same = [j for j, lam in enumerate(tags) if lam == tags[-1]]
    data = v.array.copy()
    data[:, same[0]] = data[:, same[1]]
    family = (tags, ExactMatrix(data))
    # every column is still an eigenvector, so only the rank check can decline
    assert np.array_equal((b @ family[1]).array, data * np.array(tags))
    assert eigenbasis_nullities(b, family) is None
    _force_family(monkeypatch, family)
    _assert_decided_by_bareiss(b, spectrum_general(3, 4))


def test_certificate_is_exact_past_the_int64_bound():
    _, b = B_of(3, 2)
    tags, v = eigvec_family_general(3, 2)
    assert eigenbasis_nullities(b, (tags, v)) == {9: 1, 2: 6}
    # B and the tags scaled by 2^60: the residual runs on Python ints
    big = b * (1 << 60)
    assert (big @ v).array.dtype == object
    scaled = tuple(lam << 60 for lam in tags)
    assert eigenbasis_nullities(big, (scaled, v)) == {9 << 60: 1, 2 << 60: 6}
    # V itself past the bound is held as Python ints and still certified
    huge_v = v * (1 << 62)
    assert huge_v.array.dtype == object
    assert eigenbasis_nullities(b, (tags, huge_v)) == {9: 1, 2: 6}
    # V is still invertible here, so the residual is what declines
    huge_tags = tuple(lam << 61 for lam in tags)
    assert eigenbasis_nullities(b, (huge_tags, v)) is None
    # one entry's sign flipped in the scaled family
    data = huge_v.array.copy()
    i = np.flatnonzero(data[:, 3])[0]
    data[i, 3] = -data[i, 3]
    assert eigenbasis_nullities(b, (tags, ExactMatrix(data))) is None
    # shape mismatches: a tag or a column short
    assert eigenbasis_nullities(b, (tags[:-1], v)) is None
    assert eigenbasis_nullities(b, (tags, ExactMatrix(v.array[:, :-1]))) is None


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


def test_all_ones_eigenvector():
    space, b = B_of(3, 2)
    ones = eigvec_all_ones(space)
    assert b.matvec(ones) == [9] * 7

    space4, b4 = B_of(3, 4)
    assert b4.matvec(eigvec_all_ones(space4)) == [36] * 28

    space22, b22 = B_of(2, 2)
    assert b22.matvec(eigvec_all_ones(space22)) == [1] * 3


def test_R_d_columns():
    space, b = B_of(3, 2)
    rd = eigvec_R_d(space)
    assert rd.cols == 6
    for j in range(6):
        col = [rd[i, j] for i in range(7)]
        assert b.matvec(col) == [2 * x for x in col]
    assert exact_rank(rd) == 6

    space23, b23 = B_of(2, 3)
    rd23 = eigvec_R_d(space23)
    for j in range(rd23.cols):
        col = [rd23[i, j] for i in range(rd23.rows)]
        assert b23.matvec(col) == col  # eigenvalue 3^0 = 1

    with pytest.raises(DomainError):
        eigvec_R_d(enumerate_space(3, 4))


def test_difference_vectors():
    part = k_partition(2, 2, 3)
    _, b = B_of(3, 4)
    diffs = eigvec_differences(part)
    assert diffs.cols == 21 == (2**2 - 1) * theta(3, 2)
    for j in range(diffs.cols):
        col = [diffs[i, j] for i in range(diffs.rows)]
        nonzero = [x for x in col if x]
        assert sorted(nonzero) == [-1, 1]
        assert b.matvec(col) == [4 * x for x in col]
    assert exact_rank(diffs) == 21


def test_lift_examples():
    # the first theta(3,2) columns of the (3,4) family lift the (3,2) family
    part = k_partition(2, 2, 3)
    _, b4 = B_of(3, 4)
    tags2, v2 = eigvec_family_general(3, 2)
    tags4, v4 = eigvec_family_general(3, 4)
    lifted = v4.array[:, : v2.cols]
    assert lifted[:, 0].tolist() == [1] * 28  # lift of all-ones is all-ones
    for x, pt in enumerate(part.space.points):
        assert lifted[x].tolist() == v2.array[part.base_position[pt]].tolist()
    assert tags4[: v2.cols] == tuple(2**2 * lam for lam in tags2) == (36,) + (8,) * 6
    assert np.array_equal((b4 @ ExactMatrix(lifted)).array, lifted * np.array(tags4[:7]))
    assert exact_rank(ExactMatrix(lifted)) == v2.cols  # lifting preserves independence


def test_tensor_eigenvectors():
    _, b6 = B_of(3, 6)
    tags2, _ = eigvec_family_general(3, 2)
    tags3, _ = eigvec_family_general(3, 3)
    tags6, v6 = eigvec_family_general(3, 6)
    assert tags6 == tuple(a * b for a in tags2 for b in tags3)
    assert v6.array[:, 0].tolist() == [1] * 91  # all-ones (x) all-ones
    assert tags6[:2] == (144, 27)  # 9 * 16, and 9 * 3 for ones (x) a difference column
    assert np.array_equal((b6 @ v6).array, v6.array * np.array(tags6))


def test_full_family_general():
    for n, m in [(3, 6), (2, 30), (3, 4)]:
        tags, v = eigvec_family_general(n, m)
        _, b = B_of(n, m)
        assert len(tags) == v.rows == v.cols == theta(n, m)
        assert v.array.dtype == np.int64
        assert np.array_equal((b @ v).array, v.array * np.array(tags))
        assert Counter(tags) == dict(spectrum_general(n, m).merged())
    # a prime power is its own factor family, and the list form is its view
    tags, v = eigvec_family_general(3, 4)
    assert list(zip(tags, v.array.T.tolist())) == eigvec_family_prime_power(3, 2, 2)[1]


def _family_digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# sha256 of json [tags, rows of V], recorded from the list-building families
# of earlier releases: the pair has their column order, signs and tags
FAMILY_DIGESTS = {
    (3, 4): "981a349eb43fc126bea7666e5ae9727aa905be2a01734cbf803299fa916e3b46",
    (3, 6): "308ddd83b7718b0c21ea652d2575092deacaca8c94b219dee3e5f7509c8db099",
    (2, 30): "37bfbfcfdac928fd985e1711a5c1def18520c9881595f63cea087df0b966e72a",
    (3, 12): "4e55d44c98894f9193883c03ae43361ab7305bfa8be84437a0e8e68871ecc069",
    (4, 6): "7df1bd03a3f090e47df33bb7005aeaf4b5b34899ef774fab4292eb1fbd848ea1",
    (2, 105): "16043665588b4f42f6e1fd5f5c6dee5ef3d3fd1955966e910d2742a542eea5a6",
}


@pytest.mark.parametrize("n, m", list(FAMILY_DIGESTS))
def test_family_digest(n, m):
    tags, v = eigvec_family_general(n, m)
    assert type(tags) is tuple and all(type(lam) is int for lam in tags)
    assert _family_digest([list(tags), v.array.tolist()]) == FAMILY_DIGESTS[n, m]


def test_prime_power_family_list_digest():
    _, family = eigvec_family_prime_power(3, 2, 4)
    assert _family_digest([[lam, vec] for lam, vec in family]) == (
        "60c1f1d8faf275bded774b942ee28595ec0d1d647862af5a366dff93fd485b73"
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
