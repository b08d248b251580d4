import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmspec.errors import DomainError, UnsupportedError
from zmspec.matrices import (
    ExactMatrix,
    _exact_dtype,
    Permutation,
    apply_simultaneous_permutation,
    block_C,
    block_C_reference,
    build_A,
    build_B_analytic,
    build_B_product,
    crt_permutation,
    entry_b_uv,
    tensor_product,
    to_csv,
    to_matrix_market,
)
from zmspec.modular import crt_combine
from zmspec.projective import canonical_rep, enumerate_space, k_partition, point_label, theta


def B_of(n, m, ordering="lex"):
    space = enumerate_space(n, m, ordering)
    return space, build_B_product(build_A(space))


def _crt(n, m1, m2):
    """The CRT permutation over the lex-ordered P_{n,m1}, P_{n,m2} and P_{n,m1*m2}."""
    return crt_permutation(*(enumerate_space(n, m) for m in (m1, m2, m1 * m2)))


def test_exact_matrix_basics():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2 and m.rows == m.cols == 2
    assert (m + m)[1, 1] == 8
    assert (3 * m)[1, 0] == 9
    assert (m - m) == ExactMatrix.zeros(2, 2)
    assert m.transpose()[0, 1] == 3
    assert m.trace() == 5
    assert (m @ ExactMatrix.identity(2)) == m
    assert m.matvec([1, 1]) == [3, 7]
    with pytest.raises(DomainError):
        ExactMatrix([[1, 2], [3]])
    with pytest.raises(DomainError):
        m @ ExactMatrix.zeros(3, 3)


def test_exact_matrix_big_values():
    big = 10**30
    m = ExactMatrix([[big, 0], [0, big]])
    prod = m @ m
    assert prod[0, 0] == big * big
    assert m.matvec([1, 2]) == [big, 2 * big]


@pytest.mark.parametrize("vec", [[1.5, 0], ["7", 1], [2.0, 1]])
def test_matvec_rejects_non_integer_entries_as_the_constructor_does(vec):
    m = ExactMatrix([[1, 2], [3, 4]])
    with pytest.raises(DomainError):
        ExactMatrix([vec])
    with pytest.raises(DomainError):
        m.matvec(vec)


# entries from 2^61 to 2^62 - 1 fit int64 storage, but their products and
# sums of three do not: int64 arithmetic would wrap silently on them
BOUNDARY = [
    [[2**61, 2**62 - 1, -(2**62 - 1)], [2**62 - 1, 2**61 + 7, 1], [-(2**61), 5, 2**62 - 1]],
    [[10**30, 2**62 - 1, -1], [2**61, -(10**30), 2**62 - 1], [0, 3, 2**61]],
]


@pytest.mark.parametrize("data", BOUNDARY)
def test_int64_boundary_matches_python_ints(data):
    other = [row[::-1] for row in data[::-1]]
    m, o = ExactMatrix(data), ExactMatrix(other)
    vec = [2**61, -(2**62 - 1), 7]
    n = len(data)
    assert m.to_lists() == data
    assert (m + o).to_lists() == [[a + b for a, b in zip(r, s)] for r, s in zip(data, other)]
    assert (m - o).to_lists() == [[a - b for a, b in zip(r, s)] for r, s in zip(data, other)]
    assert (3 * m).to_lists() == [[3 * a for a in r] for r in data]
    assert (m * -(2**40)).to_lists() == [[-(2**40) * a for a in r] for r in data]
    assert (m @ o).to_lists() == [
        [sum(a * b for a, b in zip(r, c)) for c in zip(*other)] for r in data
    ]
    assert m.matvec(vec) == [sum(a * b for a, b in zip(r, vec)) for r in data]
    assert tensor_product(m, o).to_lists() == [
        [a * b for a in r1 for b in r2] for r1 in data for r2 in other
    ]
    assert m.trace() == sum(data[i][i] for i in range(n))
    assert m.trace_of_square() == sum(data[i][j] * data[j][i] for i in range(n) for j in range(n))
    assert m.row_sums() == [sum(r) for r in data]


@pytest.mark.parametrize("sign", [1, -1])
def test_float64_tier_ends_below_2_53(sign):
    # (2^27 + 1) * (2^26 + 1) = 2^53 + 2^27 + 2^26 + 1 is odd and above
    # 2^53, where float64 holds only even integers: a float product rounds it
    a, b = 2**27 + 1, 2**26 + 1
    assert (ExactMatrix([[sign * a]]) @ ExactMatrix([[b]])).to_lists() == [[sign * a * b]]
    assert ExactMatrix([[sign * a]]).matvec([b]) == [sign * a * b]
    assert _exact_dtype(a, b, a * b, blas=True) is object
    assert _exact_dtype(a, b - 2, a * (b - 2), blas=True) is np.float64
    assert _exact_dtype(a, b - 2, a * (b - 2)) is np.int64


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_is_exact_on_both_sides_of_the_float64_bound(data):
    rows, inner, cols = (data.draw(st.integers(1, 6)) for _ in range(3))
    top_a = data.draw(st.integers(1, 1 << 40))
    # max|a| * max|b| * inner just below 2^53 (float64 tier) or just above
    above = data.draw(st.booleans())
    top_b = (1 << 53) // (top_a * inner) + 1 if above else ((1 << 53) - 1) // (top_a * inner)
    assert (top_a * top_b * inner < 1 << 53) != above

    def matrix(shape, top):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        entries = [rng.randint(-top, top) for _ in range(shape[0] * shape[1])]
        entries[rng.randrange(len(entries))] = rng.choice([top, -top])
        return [entries[i * shape[1]:(i + 1) * shape[1]] for i in range(shape[0])]

    a, b = matrix((rows, inner), top_a), matrix((inner, cols), top_b)
    product = (ExactMatrix(a) @ ExactMatrix(b)).array
    assert product.dtype == np.int64
    # the object-dtype product, on Python ints
    expected = np.array(a, dtype=object) @ np.array(b, dtype=object)
    assert product.tolist() == expected.tolist()


def test_storage_dtype_follows_the_largest_entry():
    assert ExactMatrix([[2**62 - 1, -(2**62 - 1)]]).array.dtype == np.int64
    big = ExactMatrix([[2**62, 1]])
    assert big.array.dtype == object and big.max_abs() == 2**62
    assert (big - big).array.dtype == np.int64
    # numpy alone would read this row as float64 and lose the low bits
    assert ExactMatrix([[2**63 + 1, -1]]).to_lists() == [[2**63 + 1, -1]]
    assert ExactMatrix(np.array([[2**63 + 1]], dtype=np.uint64))[0, 0] == 2**63 + 1


def test_stored_array_is_read_only_and_shared():
    own = np.array([[1, 2], [3, 4]], dtype=np.int64)
    m = ExactMatrix(own)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5
    with pytest.raises(ValueError):
        m.transpose().array[0, 1] = 5
    assert own.flags.writeable and np.shares_memory(m.array, own)


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


def test_trace_of_square_matches_product():
    m = ExactMatrix([[1, 2, 0], [2, 5, 1], [0, 1, 7]])
    assert m.trace_of_square() == (m @ m).trace()


def test_build_A_2_2():
    space = enumerate_space(2, 2)
    a = build_A(space)
    # hand-computed: points (0,1),(1,0),(1,1); only <01,10> and <11,11> vanish
    assert a.to_lists() == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]


def test_build_A_row_sums_and_symmetry():
    space = enumerate_space(3, 2)
    a = build_A(space)
    assert a.row_sums() == [theta(2, 2)] * 7
    assert a.is_symmetric()


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


def test_analytic_equals_product():
    for n, m in [(3, 4), (3, 3), (4, 2), (2, 8), (2, 9)]:
        space = enumerate_space(n, m)
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
        lhs = tensor_product(m1, m2) @ tensor_product(n1, n2)
        rhs = tensor_product(m1 @ n1, m2 @ n2)
        assert lhs == rhs


def test_permutation_validation():
    with pytest.raises(DomainError):
        Permutation((0, 0, 1), 3)
    assert Permutation.identity(4).forward == (0, 1, 2, 3)


def test_crt_permutation_examples():
    perm = _crt(2, 2, 3)
    s1 = enumerate_space(2, 2)
    s2 = enumerate_space(2, 3)
    big = enumerate_space(2, 6)
    assert perm.size == 12 == theta(2, 2) * theta(2, 3) == theta(2, 6)

    # (0,1) x (0,1) maps to (0,1) mod 6
    src = s1.position(canonical_rep((0, 1), 2)) * len(s2) + s2.position(
        canonical_rep((0, 1), 3)
    )
    assert perm.forward[src] == big.position(canonical_rep((0, 1), 6))

    # CRT of (1,1) mod 2 and (1,2) mod 3, checked coordinatewise:
    # first coordinate 1, second satisfies x=1 (2), x=2 (3), i.e. 5
    assert crt_combine([(1, 2), (2, 3)]) == 5
    src2 = s1.position(canonical_rep((1, 1), 2)) * len(s2) + s2.position(
        canonical_rep((1, 2), 3)
    )
    assert perm.forward[src2] == big.position(canonical_rep((1, 5), 6))


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
    assert _crt(n, m1, m2).forward == tuple(forward)


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
    lex = np.array(crt_permutation(lex1, s2, big).forward)
    assert crt_permutation(s1, s2, big).forward == tuple(lex[pair].tolist())


def test_apply_simultaneous_permutation_identity_and_invariants():
    _, b = B_of(2, 6)
    ident = Permutation.identity(b.rows)
    assert apply_simultaneous_permutation(b, ident) == b

    perm = _crt(2, 2, 3)
    conj = apply_simultaneous_permutation(b, perm)
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
    part = k_partition(enumerate_space(3, 4))
    _, b = B_of(3, 4)
    for a in range(4):
        for c in range(4):
            blk = block_C(a, c, part, b)
            if a == c:
                assert all(
                    blk[i, j] == (6 if i == j else 1) for i in range(7) for j in range(7)
                )
            else:
                assert all(
                    blk[i, j] == (2 if i == j else 1) for i in range(7) for j in range(7)
                )


def test_block_C_follows_the_row_labels_of_any_ordering():
    # B's rows are found through its labels, so a k-grouped B gives the
    # lex B's blocks against the lex partition, labels included
    part = k_partition(enumerate_space(3, 4))
    _, lex = B_of(3, 4)
    _, grouped = B_of(3, 4, "k-grouped")
    assert grouped != lex
    for a in range(4):
        for c in range(4):
            mine, ref = block_C(a, c, part, grouped), block_C(a, c, part, lex)
            assert mine == ref
            assert (mine.row_labels, mine.col_labels) == (ref.row_labels, ref.col_labels)


@pytest.mark.parametrize(
    "relabel",
    [lambda labels: tuple(map(point_label, labels)), lambda labels: labels[:-1] + labels[:1]],
    ids=["strings", "repeated-point"],
)
def test_block_C_refuses_labels_that_are_not_the_points(relabel):
    part = k_partition(enumerate_space(3, 4))
    _, b = B_of(3, 4)
    labels = relabel(b.row_labels)
    with pytest.raises(DomainError, match="not those of"):
        block_C(0, 1, part, ExactMatrix(b.array, labels, labels))


def test_block_reference_identity():
    part = k_partition(enumerate_space(3, 4))
    _, b = B_of(3, 4)
    _, base_b = B_of(3, 2)
    # the off-diagonal prediction is B_{3,2} - I: diagonal 2, off-diagonal 1
    ref = block_C_reference(0, 1, part, base_b)
    assert all(ref[i, j] == (2 if i == j else 1) for i in range(7) for j in range(7))
    for a in range(4):
        for c in range(4):
            assert block_C(a, c, part, b) == block_C_reference(a, c, part, base_b)


def test_block_reference_rejects_n2():
    part = k_partition(enumerate_space(2, 4))
    _, base_b = B_of(2, 2)
    with pytest.raises(UnsupportedError):
        block_C_reference(0, 0, part, base_b)


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
