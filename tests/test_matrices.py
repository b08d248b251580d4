import math
import platform
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmspec.counting import xi_data
from zmspec.errors import DomainError, UnsupportedError
from zmspec.matrices import (
    ExactMatrix,
    _product_dtype,
    _storage_dtype,
    apply_simultaneous_permutation,
    block_identity,
    build_A,
    build_B_analytic,
    build_B_product,
    crt_permutation,
    entry_b_uv,
    tensor_product,
    to_csv,
    to_matrix_market,
)
from zmspec import cli, matrices
from zmspec.modular import crt_combine
from zmspec.projective import canonical_rep, enumerate_space, point_keys, point_label, theta
from zmspec.spectrum import eigvec_family_general


def B_of(n, m, ordering="lex"):
    space = enumerate_space(n, m, ordering)
    return space, build_B_product(build_A(space))


def _crt(n, m1, m2):
    """The CRT permutation over the lex-ordered P_{n,m1}, P_{n,m2} and P_{n,m1*m2}."""
    return crt_permutation(*(enumerate_space(n, m) for m in (m1, m2, m1 * m2)))


def _zeros(rows, cols):
    return ExactMatrix(np.zeros((rows, cols), dtype=np.int8))


def _object_product(x, y):
    """x @ y on Python ints: an oracle that shares no code with the float tiers."""
    return x.array.astype(object) @ y.array.astype(object)


def test_exact_matrix_basics():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2 and m.rows == m.cols == 2
    assert (m + m)[1, 1] == 8
    assert (3 * m)[1, 0] == 9
    assert (m - m) == _zeros(2, 2)
    assert m.trace() == 5
    assert build_B_product(m).to_lists() == [[5, 11], [11, 25]]
    assert m.matvec([1, 1]) == [3, 7]
    with pytest.raises(DomainError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(DomainError):
        m + ExactMatrix.identity(3)
    with pytest.raises(DomainError):
        m.matvec([1, 1, 1])


def test_exact_matrix_big_values():
    big = 10**30
    m = ExactMatrix([[big, 0], [0, big]])
    assert build_B_product(m).to_lists() == [[big * big, 0], [0, big * big]]
    assert m.matvec([1, 2]) == [big, 2 * big]


@pytest.mark.parametrize("vec", [[1.5, 0], ["7", 1], [2.0, 1]])
def test_matvec_rejects_non_integer_entries_as_the_constructor_does(vec):
    m = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        ExactMatrix([vec])
    with pytest.raises(DomainError):
        m.matvec(vec)


def _at_the_bound(k):
    """Entries from 2^(k-1) to 2^k - 1 of either sign: they fit the storage
    dtype of the bound 2^k, but their sums, products and sums of three do
    not, so arithmetic in that dtype would wrap silently on them."""
    top = 2**k - 1
    return [[2 ** (k - 1), top, -top], [top, 2 ** (k - 1) + 7, 1], [-(2 ** (k - 1)), 5, top]]


# the bound of int64 storage, int64 and object entries side by side, then
# the bounds of int8, int16 and int32 storage
BOUNDARY = [
    _at_the_bound(62),
    [[10**30, 2**62 - 1, -1], [2**61, -(10**30), 2**62 - 1], [0, 3, 2**61]],
] + [_at_the_bound(k) for k in (7, 15, 31)]


@pytest.mark.parametrize("data", BOUNDARY)
def test_int64_boundary_matches_python_ints(data, monkeypatch):
    other = [row[::-1] for row in data[::-1]]
    m, o = ExactMatrix(data), ExactMatrix(other)
    top = max(abs(x) for row in data for x in row)
    assert m.array.dtype == (_storage_dtype(top) if top < 2**62 else object)
    vec = [2**61, -(2**62 - 1), 7]
    n = len(data)
    assert m.to_lists() == data
    assert (m + o).to_lists() == [[a + b for a, b in zip(r, s)] for r, s in zip(data, other)]
    assert (m - o).to_lists() == [[a - b for a, b in zip(r, s)] for r, s in zip(data, other)]
    assert (3 * m).to_lists() == [[3 * a for a in r] for r in data]
    assert (m * -(2**40)).to_lists() == [[-(2**40) * a for a in r] for r in data]
    # the Gram product of data and its transpose, through the tiles
    assert build_B_product(m).to_lists() == [
        [sum(a * b for a, b in zip(r, s)) for s in data] for r in data
    ]
    assert m.matvec(vec) == [sum(a * b for a, b in zip(r, vec)) for r in data]
    assert tensor_product(m, o).to_lists() == [
        [a * b for a in r1 for b in r2] for r1 in data for r2 in other
    ]
    assert m.trace() == sum(data[i][i] for i in range(n))
    # trace_of_square sums tiles: one entry each, or the whole matrix
    for block_entries in (1, 1 << 16):
        monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", block_entries)
        assert m.trace_of_square() == sum(
            data[i][j] * data[j][i] for i in range(n) for j in range(n)
        )


# the results at the edges of the int8, int16 and int32 storage bounds,
# just inside and just outside, of either sign
EDGES = [sign * t for k in (7, 15, 31) for t in (2**k - 1, 2**k) for sign in (1, -1)]


@pytest.mark.parametrize("t", EDGES)
def test_results_at_the_storage_edges_match_python_ints(t):
    # every integer operation runs in the narrowest dtype of its bound, so
    # a bound that missed an operand, a partial sum or the result would
    # wrap at these values
    half = t // 2
    assert (ExactMatrix([[t - half, 1]]) + ExactMatrix([[half, -1]])).to_lists() == [[t, 0]]
    assert (ExactMatrix([[t - half, 1]]) - ExactMatrix([[-half, 1]])).to_lists() == [[t, 0]]
    assert (ExactMatrix([[1, -1, 0]]) * t).to_lists() == [[t, -t, 0]]
    assert (-1 * ExactMatrix([[t, -t]])).to_lists() == [[-t, t]]
    assert ExactMatrix([[t - half, 3], [5, half]]).trace() == t
    # the rows' inner product is (t - half) + half
    gram = build_B_product(ExactMatrix([[1, 1], [t - half, half]]))
    assert gram.to_lists() == [[2, t], [t, (t - half) ** 2 + half**2]]
    # a^2 + 2c = t with a = t mod 2
    low = t % 2
    assert ExactMatrix([[low, 1], [(t - low) // 2, 0]]).trace_of_square() == t
    # one factor 2 (t even) or 1 (t odd) times t / that factor
    two = 2 - low
    product = tensor_product(ExactMatrix([[two, -1], [1, 0]]), ExactMatrix([[t // two]]))
    assert product.to_lists() == [[t, -(t // two)], [t // two, 0]]
    # M V = V diag(tags) for the symmetric M = [[x, y], [y, x]] with x + y = t
    m = ExactMatrix([[t - half, half], [half, t - half]])
    v = ExactMatrix([[1, 1], [1, -1]])
    assert m.scales_columns(v, [t, t - 2 * half])
    assert not m.scales_columns(v, [t - 1, t - 2 * half])
    assert ExactMatrix([[t]]).scales_columns(ExactMatrix.identity(1), [t])
    assert not ExactMatrix([[t]]).scales_columns(ExactMatrix.identity(1), [t + 1])
    # a small tag equal to t's low byte: a comparison in the tags' dtype
    # rather than the product's would wrap t onto it
    low_byte = (t + 2**7) % 2**8 - 2**7
    assert ExactMatrix([[t]]).scales_columns(ExactMatrix.identity(1), [low_byte]) == (low_byte == t)


# tiles of at most 1, 3 and 5 rows (with 3 and 5 rows the last panel is
# lower than the others on every order below but 40, which 5 divides), and
# one tile holding the whole matrix
TILES = [1, 3, 5, 10**6]


def _gram_matches_the_object_product(a, dtype, monkeypatch):
    """build_B_product(A) runs in the tier ``dtype`` and equals A A^t on
    Python ints, in the storage dtype of its largest entry, for every
    tiling of TILES."""
    x = np.array(a, dtype=object)
    expected = x @ x.T
    for tile in TILES:
        monkeypatch.setattr(matrices, "_B_TILE", tile)
        monkeypatch.setattr(matrices, "_B_PANELS", 10**6)
        b = build_B_product(ExactMatrix(a))
        assert b.to_lists() == expected.tolist()
        assert b.array.dtype == _storage_dtype(max(abs(v) for v in expected.flat))
    top = max(abs(v) for row in a for v in row)
    assert _product_dtype(top, top * top * len(a)) is dtype


@pytest.mark.parametrize("sign", [1, -1])
def test_float64_tier_ends_below_2_53(sign, monkeypatch):
    # a^2 + c^2 is odd, and max|A|^2 * 2 is just below 2^53 with
    # (a, c) = (2^26 - 1, 2^26 - 2) and just above with (2^26 + 1, 2^26):
    # above 2^53 float64 holds only even integers, so a float product
    # would round 2^53 + 2^27 + 1
    for a, c, dtype in ((2**26 - 1, 2**26 - 2, np.float64), (2**26 + 1, 2**26, object)):
        _gram_matches_the_object_product([[sign * a, c], [c, 0]], dtype, monkeypatch)
    a, b = 2**27 + 1, 2**26 + 1
    assert ExactMatrix([[sign * a]]).matvec([b]) == [sign * a * b]
    assert _product_dtype(a, b, a * b) is object
    assert _product_dtype(a, b - 2, a * (b - 2)) is np.float64
    assert _storage_dtype(a, b - 2, a * (b - 2)) is np.int64


@pytest.mark.parametrize("sign", [1, -1])
def test_float32_tier_ends_below_2_24(sign, monkeypatch):
    # (2^12 - 1)^2 = 2^24 - 2^13 + 1 is odd and the largest square below
    # 2^24; (2^12 + 1)^2 = 2^24 + 2^13 + 1 is odd and above 2^24, where
    # float32 holds only even integers: a float32 product rounds it
    for a, dtype in ((2**12 - 1, np.float32), (2**12 + 1, np.float64)):
        _gram_matches_the_object_product([[sign * a]], dtype, monkeypatch)
    a = b = 2**12 + 1
    assert ExactMatrix([[sign * a]]).matvec([b]) == [sign * a * b]
    assert _product_dtype(a, b, a * b) is np.float64
    # (2^12 + 1)(2^12 - 1) = 2^24 - 1
    assert _product_dtype(a, b - 2, a * (b - 2)) is np.float32
    assert ExactMatrix([[sign * a]]).matvec([b - 2]) == [sign * (2**24 - 1)]


def test_kept_left_copy_follows_the_tier():
    # the matrix keeps its float copy in the dtype of its last call's
    # tier, so that a float32 product is not run in float64
    m = ExactMatrix([[2**12 + 1, 3]])
    for top, dtype in ((2**10, np.float32), (2**30, np.float64), (2**10, np.float32)):
        assert m.matvec([top + 1, -top]) == [(2**12 + 1) * (top + 1) - 3 * top]
        assert m._float.dtype == dtype


def _check_product_across(data, limit):
    order = data.draw(st.integers(1, 8))
    # max|A|^2 * order just below 2^limit (the float tier ending there) or
    # at or just above it: the largest top below, the smallest one at or above
    above = data.draw(st.booleans())
    top = math.isqrt(((1 << limit) - 1) // order) + above
    assert (top * top * order < 1 << limit) != above
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a = [[rng.randint(-top, top) for _ in range(order)] for _ in range(order)]
    # one row of +-top, whose diagonal entry is the bound itself
    a[rng.randrange(order)] = [rng.choice([top, -top]) for _ in range(order)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrices, "_B_TILE", data.draw(st.sampled_from(TILES)))
        patch.setattr(matrices, "_B_PANELS", 10**6)
        product = build_B_product(ExactMatrix(a)).array
    # the object-dtype product, on Python ints
    x = np.array(a, dtype=object)
    expected = x @ x.T
    assert product.tolist() == expected.tolist()
    # stored in the narrowest dtype of the ladder that holds its largest entry
    assert product.dtype == _storage_dtype(max(abs(x) for x in expected.flat))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_is_exact_on_both_sides_of_the_float64_bound(data):
    _check_product_across(data, 53)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_is_exact_on_both_sides_of_the_float32_bound(data):
    _check_product_across(data, 24)


def test_storage_dtype_follows_the_largest_entry():
    # each signed dtype holds |entry| up to 2^k - 1; -2^k, which it would
    # also hold, goes to the next one, as the rule reads max|entry|
    ladder = ((7, np.int8), (15, np.int16), (31, np.int32), (62, np.int64))
    for (k, dtype), wider in zip(ladder, [d for _, d in ladder[1:]] + [object]):
        assert ExactMatrix([[2**k - 1, -(2**k - 1)]]).array.dtype == dtype
        assert ExactMatrix([[0, -(2**k)]]).array.dtype == wider
        assert ExactMatrix(np.array([[2**k - 1]], dtype=np.int64)).array.dtype == dtype
    assert ExactMatrix([[True, False]]).array.dtype == np.int8
    big = ExactMatrix([[2**62, 1]])
    assert big.array.dtype == object and big.max_abs() == 2**62
    assert (big - big).array.dtype == np.int8
    # numpy alone would read this row as float64 and lose the low bits
    assert ExactMatrix([[2**63 + 1, -1]]).to_lists() == [[2**63 + 1, -1]]
    assert ExactMatrix(np.array([[2**63 + 1]], dtype=np.uint64))[0, 0] == 2**63 + 1


def test_stored_array_is_read_only_and_shared():
    # an array already in its storage dtype is shared
    own = np.array([[1, 2], [3, 4]], dtype=np.int8)
    m = ExactMatrix(own)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5
    with pytest.raises(ValueError):
        (3 * m).array[0, 1] = 5
    assert own.flags.writeable and np.shares_memory(m.array, own)
    # one in a wider dtype is copied into it, and left as it was
    wide = np.array([[1, 2], [3, -300]], dtype=np.int64)
    m = ExactMatrix(wide)
    assert m.array.dtype == np.int16 and not np.shares_memory(m.array, wide)
    assert wide.dtype == np.int64 and wide.flags.writeable and m.to_lists() == wide.tolist()


@pytest.mark.parametrize(
    "data",
    [
        [[1.5, 2]],
        [[1.0, 2]],
        [[1.5, 10**30]],
        [["7"]],
        [[1, "7"]],
        np.array([[1.0, 2.0]]),
        [[Fraction(1)]],
    ],
    ids=["float", "integral float", "float with big int", "string", "int and string",
         "float ndarray", "fraction"],
)
def test_non_integer_entries_are_rejected(data):
    with pytest.raises(DomainError):
        ExactMatrix(data)


def test_trace_of_square_matches_product(monkeypatch):
    small = ExactMatrix([[1, 2, 0], [2, 5, 1], [0, 1, 7]])
    rng = random.Random(5)
    data = [[rng.randint(-300, 300) for _ in range(5)] for _ in range(5)]
    m = ExactMatrix(data)
    assert m.array.dtype == np.int16
    # square tiles of side 1, 2 and 3, and one tile of the whole matrix
    for block_entries in (1, 4, 9, 1 << 16):
        monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", block_entries)
        # small is symmetric, so its square is its Gram matrix
        assert small.trace_of_square() == build_B_product(small).trace()
        assert m.trace_of_square() == sum(
            data[i][j] * data[j][i] for i in range(5) for j in range(5)
        )


def test_constructions_are_stored_narrow():
    space, b = B_of(3, 4)
    a = build_A(space)
    assert a.array.dtype == np.int8
    assert b.array.dtype == np.int8 and build_B_analytic(space).array.dtype == np.int8
    assert build_B_product(b).array.dtype == np.int8  # entries up to 72
    assert build_B_product(3 * b).array.dtype == np.int16  # up to 648
    assert tensor_product(b, b).array.dtype == np.int8  # up to 36
    assert tensor_product(100 * b, b).array.dtype == np.int16
    assert ExactMatrix.identity(3).array.dtype == np.int8


def test_build_A_2_2():
    space = enumerate_space(2, 2)
    a = build_A(space)
    # hand-computed: points (0,1),(1,0),(1,1); only <01,10> and <11,11> vanish
    assert a.to_lists() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_build_A_row_sums_and_symmetry():
    space = enumerate_space(3, 2)
    a = build_A(space).array
    assert a.sum(axis=1).tolist() == [theta(2, 2)] * 7
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("tile", TILES)
def test_build_A_tiles_match_the_int64_gram_matrix(tile, monkeypatch):
    monkeypatch.setattr(matrices, "_A_TILE", tile)
    for n, m in ((3, 4), (3, 6), (4, 3)):
        space = enumerate_space(n, m)
        assert _product_dtype(m - 1, n * (m - 1) ** 2) is np.float32
        gram = space.coords @ space.coords.T
        a = build_A(space)
        assert a.array.dtype == np.int8
        assert np.array_equal(a.array, gram % m == 0)


def test_build_A_in_the_float64_tier():
    # n(m-1)^2 = 2 * 2902^2 is above 2^24, so the Gram tiles are float64;
    # the 2904 rows make 12 panels of 242
    space = enumerate_space(2, 2903)
    assert _product_dtype(2902, 2 * 2902**2) is np.float64
    a = build_A(space).array
    assert a.dtype == np.int8
    coords = space.coords
    for start in range(0, len(space), 512):
        rows = slice(start, start + 512)
        assert np.array_equal(a[rows], coords[rows] @ coords.T % 2903 == 0)


def _gram_cases():
    rng = np.random.default_rng(7)
    a = build_A(enumerate_space(3, 6))
    return [
        a,  # 0/1, B int8
        4 * a,  # B up to 16 * 12 = 192: int16
        ExactMatrix(rng.integers(-9, 10, size=(37, 37))),  # negative entries, int16
        ExactMatrix(rng.integers(-3, 4, size=(13, 13))),  # negative entries, int8
        ExactMatrix([[2**30, -1], [3, 2**30]]),  # an object product, B int64
    ]


# (_B_TILE, _B_PANELS): the TILES alone, then tiles of theta / 5 rows
@pytest.mark.parametrize("tile, panels", [(tile, 10**6) for tile in TILES] + [(1, 5)])
def test_build_B_product_tiles_match_the_object_product(tile, panels, monkeypatch):
    monkeypatch.setattr(matrices, "_B_TILE", tile)
    monkeypatch.setattr(matrices, "_B_PANELS", panels)
    for a in _gram_cases():
        x = a.array.astype(object)
        expected = x @ x.T
        b = build_B_product(a)
        assert b.to_lists() == expected.tolist()
        assert b.array.dtype == _storage_dtype(max(abs(v) for v in expected.flat))
    assert [build_B_product(a).array.dtype for a in _gram_cases()] == [
        np.int8, np.int16, np.int16, np.int8, np.int64]


def _tiling(tile, monkeypatch):
    """Cut the B product's rows into tiles of at most ``tile`` rows."""
    monkeypatch.setattr(matrices, "_B_TILE", tile)
    monkeypatch.setattr(matrices, "_B_PANELS", 10**6)


@pytest.mark.parametrize("tile", TILES)
def test_scales_columns_accepts_the_eigenbasis_and_nothing_near_it(tile, monkeypatch):
    _tiling(tile, monkeypatch)
    for n, m in ((3, 6), (3, 8)):
        space = enumerate_space(n, m)
        b = build_B_product(build_A(space))
        family = eigvec_family_general(space)
        v = family.matrix()
        assert b.scales_columns(v, family.tags)
        # each change sits in the last row or column, which with tiles of 3
        # and 5 rows is the ragged last panel (theta is 91 and 112)
        tags = list(family.tags)
        tags[-1] += 1
        assert not b.scales_columns(v, tags)
        changed = v.array.copy()
        changed[-1, -1] += 1
        assert not b.scales_columns(ExactMatrix(changed), family.tags)
        changed = b.array.copy()
        changed[-1, -1] += 1
        assert not ExactMatrix(changed).scales_columns(v, family.tags)
        # M's float copy, kept for repeated products, is neither made nor used
        assert b._float is None


@pytest.mark.parametrize("tile", TILES)
def test_scales_columns_takes_a_wide_or_empty_v(tile, monkeypatch):
    _tiling(tile, monkeypatch)
    m = ExactMatrix([[2, 0, 0], [0, 3, 1], [0, 1, 3]])
    v = ExactMatrix([[1, 0, 0, 5, 0], [0, 1, 1, 0, 2], [0, 1, -1, 0, 2]])
    assert m.scales_columns(v, [2, 4, 2, 2, 4])
    assert not m.scales_columns(v, [2, 4, 2, 2, 2])
    assert _zeros(0, 0).scales_columns(_zeros(0, 3), [1, 2, 3])
    assert m.scales_columns(_zeros(3, 0), [])
    # a tag past int64 with a zero or empty V: 0 == 0 * tag, in Python ints
    assert m.scales_columns(_zeros(3, 2), [1 << 63, -(1 << 64)])
    assert _zeros(0, 0).scales_columns(_zeros(0, 2), [1 << 63, 1])


@pytest.mark.parametrize("tile", TILES)
def test_scales_columns_is_exact_past_the_int64_bound(tile, monkeypatch):
    _tiling(tile, monkeypatch)
    space = enumerate_space(3, 2)
    b = build_B_product(build_A(space))
    family = eigvec_family_general(space)
    v = family.matrix()
    for shift in (50, 60):
        big = b * (1 << shift)
        # the product is past float64 (max|B| = 3, order 7); its bound is
        # below 2^62 at 2^50, so the comparison is int64, and above at 2^60
        assert _product_dtype(big.max_abs(), 1, big.max_abs() * 7) is object
        tags = [lam << shift for lam in family.tags]
        assert big.scales_columns(v, tags)
        # off in the lowest bit, which no float of this size holds
        tags[0] += 1
        assert not big.scales_columns(v, tags)
        # small tags: the two sides differ, and nothing overflows
        assert not big.scales_columns(v, family.tags)
    # tags past 2^62 with a small product: Python ints again
    assert not b.scales_columns(v, [lam << 62 for lam in family.tags])


def test_scales_columns_refuses_mismatched_shapes():
    m = ExactMatrix([[2, 0], [0, 3]])
    assert m.scales_columns(ExactMatrix.identity(2), [2, 3])
    for matrix, v, tags in (
        (ExactMatrix([[2, 0, 0], [0, 3, 0]]), ExactMatrix.identity(2), [2, 3]),  # M not square
        (m, ExactMatrix.identity(3), [2, 3, 1]),  # V with M's columns but not M's rows
        (m, ExactMatrix.identity(2), [2]),  # a tag short
        (m, ExactMatrix.identity(2), [2, 3, 4]),  # a tag too many
    ):
        with pytest.raises(DomainError):
            matrix.scales_columns(v, tags)


def _traced_peak(build, arg) -> int:
    """The bytes ``build(arg)`` allocated at its peak, result included."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = build(arg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    del result
    return peak


def test_constructions_hold_no_wide_temporary():
    # whole-matrix int64 or float32 temporaries took 9 theta^2 bytes in
    # build_A and 8 theta^2 in build_B_product; the tiles keep each within
    # a small multiple of the one-byte result
    space = enumerate_space(3, 32)
    order = len(space)
    a = build_A(space)
    assert _traced_peak(build_A, space) <= 2 * order**2
    assert _traced_peak(build_B_product, a) <= 3 * order**2


def test_scales_columns_compares_in_the_narrow_dtype():
    # B_{3,10} V has the bound 18 * 217 < 2^15: the comparison of each tile
    # in int16 instead of int64 took its peak from 1466 to about 830 KiB
    space = enumerate_space(3, 10)
    b = build_B_product(build_A(space))
    family = eigvec_family_general(space)
    v = family.matrix()
    assert _traced_peak(lambda tags: b.scales_columns(v, tags), family.tags) <= 1024 * 1024


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_a_repeated_build_takes_no_fresh_pages():
    # the heap keeps what one build of A and B frees for the next; with
    # glibc's default thresholds each build at (3,24) took its results and
    # tile buffers from the system afresh, about 1700 minor page faults
    resource = pytest.importorskip("resource")
    cli._keep_freed_blocks()  # what cli.main does first
    space = enumerate_space(3, 24)
    build_B_product(build_A(space))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    build_B_product(build_A(space))
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_B_3_2_reference_grid():
    _, b = B_of(3, 2)
    assert all(
        b[i, j] == (3 if i == j else 1) for i in range(7) for j in range(7)
    )


def test_B_2_2_is_identity():
    _, b = B_of(2, 2)
    assert b == ExactMatrix.identity(3)


def test_entry_b_uv_examples():
    u = canonical_rep((0, 0, 1), 4)
    assert entry_b_uv(u, u) == 6
    assert entry_b_uv(u, canonical_rep((0, 2, 1), 4)) == 2
    assert entry_b_uv(u, canonical_rep((0, 1, 0), 4)) == 1


@pytest.mark.parametrize("n, m", [(3, 8), (3, 9)])
def test_agreeing_levels_are_the_minor_valuation(n, m):
    # the lemma behind the closed form, on every pair: u and v agree at
    # level k iff p^k divides every 2x2 minor, so the agreeing levels
    # count nu_xi
    space = enumerate_space(n, m)
    p, e = space.m.prime_power()
    levels = (point_keys(space.coords % p**k, p**k) for k in range(1, e + 1))
    agree = sum(np.equal.outer(keys, keys).astype(np.int64) for keys in levels)
    points = space.points
    assert agree.tolist() == [[xi_data(u, v).nu_xi for v in points] for u in points]


def test_analytic_equals_product():
    # e = 1..5 and n = 2..5, with one space in the k-grouped ordering
    for n, m, ordering in [(3, 4, "lex"), (3, 3, "lex"), (4, 2, "lex"), (2, 8, "lex"),
                           (2, 9, "lex"), (2, 32, "lex"), (3, 16, "lex"), (3, 25, "lex"),
                           (3, 27, "lex"), (4, 8, "lex"), (5, 4, "lex"),
                           (3, 16, "k-grouped")]:
        space = enumerate_space(n, m, ordering)
        assert build_B_analytic(space) == build_B_product(build_A(space))


def test_analytic_rejects_composite():
    with pytest.raises(UnsupportedError):
        build_B_analytic(enumerate_space(2, 6))


def test_B_diagonal_and_trace():
    space, b = B_of(3, 4)
    u = space.points[0]
    diag = entry_b_uv(u, u)
    # closed form for the constant diagonal over a prime power
    from zmspec.modular import euler_phi

    p, e, n = 2, 2, 3
    assert diag == (p ** (e * (n - 1)) - p ** ((e - 1) * (n - 1))) // euler_phi(p**e)
    assert all(b[i, i] == diag for i in range(len(space)))
    assert b.trace() == len(space) * diag


def test_tensor_identity_and_scalar():
    assert tensor_product(ExactMatrix.identity(2), ExactMatrix.identity(3)) == ExactMatrix.identity(6)
    m = ExactMatrix([[1, 2], [3, 4]])
    assert tensor_product(ExactMatrix([[5]]), m) == 5 * m


def test_tensor_mixed_product_property():
    rng = random.Random(20240810)

    def rand_matrix(r, c):
        return ExactMatrix([[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)])

    for _ in range(5):
        m1, n1 = rand_matrix(2, 3), rand_matrix(3, 2)
        m2, n2 = rand_matrix(3, 2), rand_matrix(2, 3)
        lhs = _object_product(tensor_product(m1, m2), tensor_product(n1, n2))
        rhs = tensor_product(ExactMatrix(_object_product(m1, n1)),
                             ExactMatrix(_object_product(m2, n2)))
        assert np.array_equal(lhs, rhs.array)


def test_permutation_validation():
    # a permutation is an index array holding each row index once
    m = ExactMatrix(np.arange(9).reshape(3, 3))
    for forward in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), np.array([0.0, 1.0, 2.0]),
                    np.eye(3, dtype=int)):
        with pytest.raises(DomainError, match="not a permutation"):
            apply_simultaneous_permutation(m, forward)
    assert apply_simultaneous_permutation(m, np.arange(3)) == m
    assert apply_simultaneous_permutation(m, (2, 0, 1))[0, 1] == m[2, 0]


@pytest.mark.parametrize("seed", range(4))
def test_simultaneous_permutation_equals_the_ix_gather(seed):
    # seed 0 has entries past 2^62, so an object array
    rng = np.random.default_rng(seed)
    size = 5 + 9 * seed
    data = rng.integers(-100, 100, size=(size, size))
    m = ExactMatrix(data.astype(object) * 2**70 if seed == 0 else data)
    assert (m.array.dtype == object) == (seed == 0)
    forward = rng.permutation(size)
    conj = apply_simultaneous_permutation(m, forward)
    assert conj.array.dtype == m.array.dtype
    assert np.array_equal(conj.array, m.array[np.ix_(forward, forward)])


def test_crt_permutation_examples():
    perm = _crt(2, 2, 3)
    s1 = enumerate_space(2, 2)
    s2 = enumerate_space(2, 3)
    big = enumerate_space(2, 6)
    assert perm.shape == (12,) and 12 == theta(2, 2) * theta(2, 3) == theta(2, 6)
    assert perm.dtype == np.int64 and not perm.flags.writeable

    # (0,1) x (0,1) maps to (0,1) mod 6
    src = s1.position(canonical_rep((0, 1), 2)) * len(s2) + s2.position(
        canonical_rep((0, 1), 3)
    )
    assert perm[src] == big.position(canonical_rep((0, 1), 6))

    # CRT of (1,1) mod 2 and (1,2) mod 3, checked coordinatewise:
    # first coordinate 1, second satisfies x=1 (2), x=2 (3), i.e. 5
    assert crt_combine([(1, 2), (2, 3)]) == 5
    src2 = s1.position(canonical_rep((1, 1), 2)) * len(s2) + s2.position(
        canonical_rep((1, 2), 3)
    )
    assert perm[src2] == big.position(canonical_rep((1, 5), 6))


@pytest.mark.parametrize(
    "n,m1,m2", [(2, 2, 3), (3, 2, 9), (3, 3, 8), (2, 4, 15), (4, 2, 3)]
)
def test_crt_permutation_matches_per_pair_crt(n, m1, m2):
    # oracle: canonicalize the coordinatewise CRT lift of every pair
    s1 = enumerate_space(n, m1)
    s2 = enumerate_space(n, m2)
    big = enumerate_space(n, m1 * m2)
    forward = [
        big.points.index(
            canonical_rep(
                [crt_combine([(a, m1), (b, m2)]) for a, b in zip(u.coords, v.coords)],
                m1 * m2,
            )
        )
        for u in s1.points
        for v in s2.points
    ]
    assert _crt(n, m1, m2).tolist() == forward


def test_crt_permutation_rejects_non_coprime():
    with pytest.raises(DomainError):
        _crt(2, 2, 4)


def test_crt_permutation_rejects_a_wrong_target():
    s1, s2 = enumerate_space(2, 2), enumerate_space(2, 3)
    for big in (enumerate_space(2, 5), enumerate_space(3, 6)):
        with pytest.raises(DomainError, match="not the CRT product"):
            crt_permutation(s1, s2, big)


def test_crt_permutation_follows_each_space_order():
    # a k-grouped factor or target relabels the pair or the point index
    s1, s2 = enumerate_space(3, 4, "k-grouped"), enumerate_space(3, 3)
    lex1, big = enumerate_space(3, 4), enumerate_space(3, 12)
    to_lex = np.array([lex1.position(pt) for pt in s1.points])
    pair = (to_lex[:, None] * len(s2) + np.arange(len(s2))).ravel()
    lex = crt_permutation(lex1, s2, big)
    assert np.array_equal(crt_permutation(s1, s2, big), lex[pair])


def test_apply_simultaneous_permutation_identity_and_invariants():
    _, b = B_of(2, 6)
    assert apply_simultaneous_permutation(b, np.arange(b.rows)) == b

    perm = _crt(2, 2, 3)
    conj = apply_simultaneous_permutation(b, perm)
    assert b.space is not None and conj.space is None
    flat = sorted(x for row in b.to_lists() for x in row)
    assert sorted(x for row in conj.to_lists() for x in row) == flat
    assert sorted(b[i, i] for i in range(b.rows)) == sorted(
        conj[i, i] for i in range(b.rows)
    )


@pytest.mark.parametrize(
    "n,m1,m2", [(2, 2, 3), (2, 2, 5), (2, 3, 5), (2, 4, 3), (3, 2, 3)]
)
def test_tensor_similarity(n, m1, m2):
    _, big = B_of(n, m1 * m2)
    _, b1 = B_of(n, m1)
    _, b2 = B_of(n, m2)
    perm = _crt(n, m1, m2)
    assert apply_simultaneous_permutation(big, perm) == tensor_product(b1, b2)


def test_blocks_match_worked_example():
    # in the k-grouped order class K_a is rows 7a .. 7a + 6, each aligned
    # by reduction: block (a, c) is 6 on the diagonal when a = c, 2 when
    # a != c, and 1 off it
    _, b = B_of(3, 4, "k-grouped")
    for a in range(4):
        for c in range(4):
            blk = b.array[7 * a:7 * a + 7, 7 * c:7 * c + 7]
            if a == c:
                assert all(
                    blk[i, j] == (6 if i == j else 1) for i in range(7) for j in range(7)
                )
            else:
                assert all(
                    blk[i, j] == (2 if i == j else 1) for i in range(7) for j in range(7)
                )
    assert block_identity(3, 2, 2, B_of(3, 2)[1]) == b


@pytest.mark.parametrize(
    "relabel",
    [lambda space: space.points, lambda space: tuple(map(point_label, space.points)),
     lambda space: enumerate_space(3, 3)],
    ids=["points", "strings", "wrong-size"],
)
def test_labels_must_be_a_space_of_as_many_points(relabel):
    # P_{3,3} has 13 points, B_{3,4} 28 rows
    space, b = B_of(3, 4)
    assert b.space is space and ExactMatrix(b.array, space).space is space
    with pytest.raises(DomainError, match="28x28 matrix must be a space of as many points"):
        ExactMatrix(b.array, relabel(space))
    # one space labels the rows and the columns, so a labelled matrix is square
    with pytest.raises(DomainError, match="28x27 matrix must be a space"):
        ExactMatrix(b.array[:, 1:], space)


def test_block_reference_identity():
    # the whole k-grouped B_{n,p^e} is J_l (x) C + p^(e(n-2)) I, with the
    # off-diagonal block C = p^(n-3) B_{n,p^(e-1)} - p^((e-1)(n-2)-1) I
    for n, p, e in [(3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)]:
        _, b = B_of(n, p**e, "k-grouped")
        _, base_b = B_of(n, p ** (e - 1))
        predicted = block_identity(n, p, e, base_b)
        assert predicted == b
        assert predicted.space is None
        size = base_b.rows
        off = p ** (n - 3) * base_b - p ** ((e - 1) * (n - 2) - 1) * ExactMatrix.identity(size)
        assert ExactMatrix(predicted.array[:size, size:2 * size]) == off
    # the off-diagonal prediction at (3, 2, 2) is B_{3,2} - I: diagonal 2,
    # off-diagonal 1
    off = block_identity(3, 2, 2, B_of(3, 2)[1]).array[:7, 7:14]
    assert off.tolist() == [[2 if i == j else 1 for j in range(7)] for i in range(7)]


def test_block_reference_rejects_n2():
    _, base_b = B_of(2, 2)
    with pytest.raises(UnsupportedError):
        block_identity(2, 2, 2, base_b)


def test_block_reference_rejects_a_base_of_the_wrong_order():
    # B_{3,3} (13 points) is not the base of P_{3,4}, which is P_{3,2}
    _, base_b = B_of(3, 3)
    with pytest.raises(DomainError, match=r"P_\{3,2\}"):
        block_identity(3, 2, 2, base_b)
    # e = 1 has no level below, and 4^2 is no p^e with p prime
    for p, e in [(2, 1), (4, 2)]:
        with pytest.raises(DomainError, match="prime p and e >= 2"):
            block_identity(3, p, e, base_b)


def test_matrix_market_format():
    m = ExactMatrix([[1, 2], [3, 4]])
    text = to_matrix_market(m)
    lines = text.splitlines()
    assert lines[0] == "%%MatrixMarket matrix array integer general"
    assert lines[1] == "2 2"
    # column-major body
    assert lines[2:] == ["1", "3", "2", "4"]


def test_csv_export_with_labels():
    space = enumerate_space(2, 2)
    a = build_A(space)
    lines = to_csv(a).splitlines()
    assert lines[0] == ",01,10,11"
    assert lines[1] == "01,0,1,0"


def test_csv_export_comma_labels_quoted():
    space = enumerate_space(2, 12)
    a = build_A(space)
    lines = to_csv(a).splitlines()
    # labels for m > 10 are comma-joined, so csv must quote them
    assert lines[0].startswith(',"0,1"')
