"""Dense exact integer matrices and the constructions built on them.

The incidence matrix A (1 where two points have vanishing inner
product), its Gram matrix B = A*A^t built two independent ways (exact
product and the closed-form prime-power entry), Kronecker products, the
CRT relabeling that exhibits B_{n,m} as a tensor product over the
prime-power factors, and the fiber-aligned blocks of B over a
K-partition.  All arithmetic is exact: every operation is one numpy
expression in the dtype that ``_exact_dtype`` picks from a checked bound
on the values it computes.  A matrix product has two tiers: one float64
BLAS product while its operand entries, products and partial sums stay
below 2^53, which is exact there in any summation order, and Python ints
(an object array) above that.  Every other operation runs in int64 while
its values stay below 2^62, and on Python ints above that.  Entries are
stored as int64 or object, never as floats.

The four export formats (Matrix Market, CSV, JSON, aligned table) are
rendered from one token table per matrix: each distinct entry value is
formatted once, as a full token with its separators, every entry picks
its token with one gather, and the text is one join.  The output is
byte-identical to earlier releases, which formatted every entry on its
own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .counting import xi_data
from .errors import DomainError, UnsupportedError
from .modular import euler_phi
from .projective import KPartition, ProjectivePoint, ProjectiveSpace, point_label

# below this, a sum of two values still fits int64
_INT64_LIMIT = 1 << 62
# every integer of absolute value at most this is a float64
_FLOAT64_LIMIT = 1 << 53


def _exact_dtype(*bounds: int, blas: bool = False) -> type:
    """The dtype in which a computation is exact, in two tiers each:

    - a matrix product (``blas``) runs in float64 when every bound is
      below 2^53, and in object (Python ints) otherwise;
    - any other operation runs in int64 when every bound is below 2^62,
      and in object otherwise.

    This is the only place a dtype is decided.  Callers pass a bound on
    the absolute value of every operand entry and of every partial and
    final result entry, so the int64 path can never wrap.

    The float64 tier is exact for the same reason.  A product passes
    max|a|, max|b| and max|a| * max|b| * inner, where inner is the shared
    dimension.  Every operand entry, every product a_ik * b_kj and every
    partial sum of such products is then an integer of absolute value
    below 2^53.  Each of them is a float64, so each rounding step of the
    BLAS product has an exactly representable result and returns it
    unchanged, whatever summation order, blocking or fused multiply-add
    the library uses.  The result holds integers below 2^53, which the
    cast back to int64 keeps exactly.  A product has no int64 tier: numpy
    has no BLAS for int64, and every product the package forms has a
    bound of at most theta^2 (B is at most theta, a family is +-1 and A
    is 0/1), below 2^53 for every theta < 2^26.  Other operations stay in
    integer dtypes, where floats would gain nothing.  The checks are plain
    comparisons, so they hold under ``python -O``."""
    bound = max(bounds)
    if blas:
        return np.float64 if bound < _FLOAT64_LIMIT else object
    return np.int64 if bound < _INT64_LIMIT else object


def _exact_array(data) -> tuple[np.ndarray, int]:
    """``data`` as a read-only 2-d array in the dtype its largest |entry|
    gets from ``_exact_dtype``, together with that largest |entry|.

    Integer and bool entries are accepted; floats, strings and anything
    else that is not an integer raise DomainError."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind not in "biu":
            # big Python ints, or something that is not an integer at all
            arr = np.array(data, dtype=object)
    except ValueError as exc:
        raise DomainError("ragged rows are not a matrix") from exc
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise DomainError(f"matrix data must be 2-d, got shape {arr.shape}")
    if arr.dtype == object:
        try:
            flat = [operator.index(x) for x in arr.flat]
        except TypeError as exc:
            raise DomainError("matrix entries must be integers") from exc
        max_abs = max(map(abs, flat), default=0)
        arr = np.array(flat, dtype=_exact_dtype(max_abs)).reshape(arr.shape)
    else:
        max_abs = max(-int(arr.min()), int(arr.max())) if arr.size else 0
        arr = arr.astype(_exact_dtype(max_abs), copy=False)
    # a view, so that a caller's own array keeps its flags
    arr = arr.view()
    arr.flags.writeable = False
    return arr, max_abs


class ExactMatrix:
    """Dense matrix of arbitrary-precision integers with optional point labels.

    The entries live in one read-only 2-d ndarray: int64 while every
    |entry| < 2^62, an object array of Python ints otherwise.  Each
    operation states a bound on the values it computes and runs in the
    dtype ``_exact_dtype`` picks for that bound, so a result is exact in
    every tier.  An int64 ndarray passed in is shared, not copied, and
    no method writes to the array, so transposes and index views share
    memory too.  A matrix that is the left operand of a float64 product
    keeps the float64 copy of its entries for later products.
    """

    __slots__ = ("_array", "_max_abs", "_float", "row_labels", "col_labels")

    def __init__(
        self,
        data: list[list[int]] | np.ndarray,
        row_labels: tuple[ProjectivePoint, ...] | None = None,
        col_labels: tuple[ProjectivePoint, ...] | None = None,
    ):
        self._array, self._max_abs = _exact_array(data)
        self._float: np.ndarray | None = None
        if row_labels is not None and len(row_labels) != self.rows:
            raise DomainError("row label count does not match the row count")
        if col_labels is not None and len(col_labels) != self.cols:
            raise DomainError("column label count does not match the column count")
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    # -------------------- constructors --------------------

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls(np.eye(k, dtype=np.int64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64))

    # -------------------- access --------------------

    @property
    def array(self) -> np.ndarray:
        """The read-only entries (int64, or object when some |entry| >= 2^62)."""
        return self._array

    @property
    def rows(self) -> int:
        return self._array.shape[0]

    @property
    def cols(self) -> int:
        return self._array.shape[1]

    def __getitem__(self, key: tuple[int, int]) -> int:
        return int(self._array[key])

    def to_lists(self) -> list[list[int]]:
        return self._array.tolist()

    def max_abs(self) -> int:
        return self._max_abs

    # -------------------- structure --------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and np.array_equal(self._array, self._array.T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return np.array_equal(self._array, other._array)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -------------------- arithmetic --------------------

    def _as(self, dtype: type) -> np.ndarray:
        return self._array.astype(dtype, copy=False)

    def _float64(self) -> np.ndarray:
        """The entries as float64, for the left operand of a product in the
        float64 tier.  The copy is made once and kept, so that the products
        M @ X_1, M @ X_2, ... of one M (the blocks of the eigenbasis
        certificate) convert M once.  A right operand is converted afresh
        instead, so that its copy is freed with the product."""
        if self._float is None:
            self._float = self._array.astype(np.float64)
        return self._float

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self._array.T, self.col_labels, self.row_labels)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        dtype = _exact_dtype(self._max_abs + other._max_abs)
        return ExactMatrix(self._as(dtype) + other._as(dtype), self.row_labels, self.col_labels)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        dtype = _exact_dtype(self._max_abs + other._max_abs)
        return ExactMatrix(self._as(dtype) - other._as(dtype), self.row_labels, self.col_labels)

    def __mul__(self, scalar: int) -> "ExactMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        s = int(scalar)
        dtype = _exact_dtype(abs(s), self._max_abs, abs(s) * self._max_abs)
        return ExactMatrix(self._as(dtype) * s, self.row_labels, self.col_labels)

    __rmul__ = __mul__

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self._array.shape != other._array.shape:
            raise DomainError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a, b = self._max_abs, other._max_abs
        dtype = _exact_dtype(a, b, a * b * self.cols, blas=True)
        if dtype is object:
            out = self._as(dtype) @ other._as(dtype)
        else:
            # one BLAS product, exact by the bound; the right operand's
            # copy is freed before the result is cast back
            out = (self._float64() @ other._as(dtype)).astype(np.int64)
        return ExactMatrix(out, self.row_labels, other.col_labels)

    def matvec(self, vec: list[int] | tuple[int, ...]) -> list[int]:
        """Exact matrix-vector product; the entries of ``vec`` must be
        integers, as the constructor's are."""
        if len(vec) != self.cols:
            raise DomainError(f"vector length {len(vec)} does not match {self.cols} columns")
        column = ExactMatrix([list(vec)]).transpose()
        return (self @ column).array[:, 0].tolist()

    def trace(self) -> int:
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        dtype = _exact_dtype(self._max_abs * self.rows)
        return int(self._as(dtype).diagonal().sum())

    def trace_of_square(self) -> int:
        """trace(M @ M) without forming the product."""
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        x = self._as(_exact_dtype(self._max_abs, self._max_abs**2 * self.rows**2))
        return int((x * x.T).sum())

    def row_sums(self) -> list[int]:
        dtype = _exact_dtype(self._max_abs * self.cols)
        return self._as(dtype).sum(axis=1).tolist()


@dataclass(frozen=True)
class Permutation:
    """A bijection on [0, size) stored as source -> target."""

    forward: tuple[int, ...]
    size: int

    def __post_init__(self) -> None:
        if len(self.forward) != self.size:
            raise DomainError("permutation length does not match its size")
        if sorted(self.forward) != list(range(self.size)):
            raise DomainError("mapping is not a bijection on [0, size)")

    @classmethod
    def identity(cls, size: int) -> "Permutation":
        return cls(tuple(range(size)), size)


# -------------------- constructions --------------------


def build_A(space: ProjectiveSpace) -> ExactMatrix:
    """0/1 incidence matrix: entry 1 iff the points' inner product is 0 mod m."""
    m = space.m.value
    gram = (space.coords @ space.coords.T) % m
    return ExactMatrix((gram == 0).astype(np.int64), space.points, space.points)


def build_B_product(a: ExactMatrix) -> ExactMatrix:
    """Exact Gram matrix A @ A^t."""
    if not a.is_square:
        raise DomainError("the incidence matrix must be square")
    top = a.max_abs()
    if _exact_dtype(top, top * top * a.cols, blas=True) is not np.float64:
        return a @ a.transpose()
    # the float64 tier of A @ A^t from one copy of A, which BLAS multiplies
    # by its own transpose (a symmetric rank-k update); the copy goes
    # before the product is cast back, so the cast can take its place
    x = a.array.astype(np.float64)
    prod = x @ x.T
    del x
    return ExactMatrix(prod.astype(np.int64), a.row_labels, a.row_labels)


def _entry_table(p: int, e: int, n: int) -> list[int]:
    """The closed-form entries of B over p^e by valuation: entry nu is
    (p^(nu+e(n-2)) - p^(min(nu,e-1)+(e-1)(n-2))) / phi(p^e), nu = 0..e.
    Raises DomainError when a quotient is not an integer."""
    phi = euler_phi(p**e)
    table = []
    for nu in range(e + 1):
        num = p ** (nu + e * (n - 2)) - p ** (min(nu, e - 1) + (e - 1) * (n - 2))
        q, r = divmod(num, phi)
        if r:
            raise DomainError(f"entry formula is not integral: {num} / {phi}")
        table.append(q)
    return table


def entry_b_uv(u: ProjectivePoint, v: ProjectivePoint) -> int:
    """Closed-form entry of B over a prime power: entry nu_p(xi) of
    ``_entry_table``."""
    data = xi_data(u, v)
    return _entry_table(data.p, data.e, u.dimension)[data.nu_xi]


def build_B_analytic(space: ProjectiveSpace) -> ExactMatrix:
    """B over a prime power from the closed-form entry (no matrix product).

    Composite moduli are rejected: the entry formula only exists for
    p^e; general m is covered by the product route or the tensor route.
    """
    if not space.m.is_prime_power:
        raise UnsupportedError(
            f"the closed-form entry needs a prime-power modulus, got {space.m.value}"
        )
    p, e = space.m.prime_power()
    n = space.n
    q = p**e
    coords = space.coords

    # g = gcd of p^e and all 2x2 minors, vectorized over all point pairs and
    # updated in place; minors are below m^2 so int64 is exact
    g = np.full((len(space), len(space)), q, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            minor = np.multiply.outer(coords[:, i], coords[:, j])
            minor -= np.multiply.outer(coords[:, j], coords[:, i])
            np.abs(minor, out=minor)
            np.gcd(g, minor, out=g)

    # g divides p^e, so it is p^nu and indexes the entry table directly
    entries = _entry_table(p, e, n)
    by_g = np.zeros(q + 1, dtype=_exact_dtype(max(entries)))
    by_g[[p**k for k in range(e + 1)]] = entries
    return ExactMatrix(by_g[g], space.points, space.points)


def tensor_product(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product; row (i1, i2) of the result is flat index i1*rows2 + i2."""
    a, b = m1.max_abs(), m2.max_abs()
    dtype = _exact_dtype(a, b, a * b)
    return ExactMatrix(np.kron(m1._as(dtype), m2._as(dtype)))


def crt_permutation(
    s1: ProjectiveSpace, s2: ProjectiveSpace, big: ProjectiveSpace
) -> Permutation:
    """Bijection from pair indices of s1 x s2, where s1 = P_{n,m1} and
    s2 = P_{n,m2} (pair-lex order, flat index i1*theta2 + i2), onto
    indices of big = P_{n,m1*m2}, sending (u, v) to the class of the
    coordinatewise CRT lift.

    Nothing is enumerated: each point of ``big`` reduces mod m1 and mod
    m2 to its pair, located with one gather in the position tables of s1
    and s2, which gives the inverse map directly.  Every space keeps its
    own ordering."""
    m1, m2 = s1.m.value, s2.m.value
    if math.gcd(m1, m2) != 1:
        raise DomainError(f"{m1} and {m2} are not coprime")
    if big.m.value != m1 * m2 or not s1.n == s2.n == big.n:
        raise DomainError(f"P_{{{big.n},{big.m.value}}} is not the CRT product of "
                          f"P_{{{s1.n},{m1}}} and P_{{{s2.n},{m2}}}")
    forward = np.full(len(big), -1)
    forward[s1.positions(big.coords) * len(s2) + s2.positions(big.coords)] = np.arange(len(big))
    return Permutation(tuple(forward.tolist()), len(big))


def apply_simultaneous_permutation(m: ExactMatrix, perm: Permutation) -> ExactMatrix:
    """Conjugate by the permutation matrix P with P[i, forward[i]] = 1,
    i.e. entry (i, j) of the result is entry (forward[i], forward[j]) of m."""
    if not m.is_square:
        raise DomainError("simultaneous permutation needs a square matrix")
    if m.rows != perm.size:
        raise DomainError(f"permutation size {perm.size} does not match order {m.rows}")
    f = perm.forward
    labels = tuple(m.row_labels[i] for i in f) if m.row_labels else None
    return ExactMatrix(m.array[np.ix_(f, f)], labels, labels)


def block_C(a: int, b: int, partition: KPartition, big_b: ExactMatrix) -> ExactMatrix:
    """The K_a x K_b block of B, rows/columns aligned by base-point position
    so that pairs with equal reductions sit on the block diagonal.

    B's rows follow its row labels, which must be exactly the points of
    P_{n,m} (DomainError otherwise), and the partitioned space's order
    when it has none."""
    if not 0 <= a < partition.l or not 0 <= b < partition.l:
        raise DomainError(f"class indices must lie in [0, {partition.l})")
    space = partition.space
    if big_b.rows != len(space):
        raise DomainError("matrix order does not match the partitioned space")
    positions = partition.positions
    if big_b.row_labels is not None:
        # the row of B holding each point of the partition
        rows = ProjectiveSpace.from_points(space.n, space.m, big_b.row_labels)
        positions = rows.positions(space.coords)[positions]
    block = big_b.array[np.ix_(positions[a], positions[b])]
    return ExactMatrix(block, partition.classes[a], partition.classes[b])


def block_C_reference(
    a: int, b: int, partition: KPartition, base_b: ExactMatrix
) -> ExactMatrix:
    """The predicted block: p^(n-3) * B_{n,p^(e-1)} - p^((e-1)(n-2)-1) * I,
    plus p^(e(n-2)) * I on the diagonal blocks.  Defined for n >= 3 only
    (the leading coefficient is fractional at n = 2)."""
    p, e, n = partition.p, partition.e, partition.n
    if n < 3:
        raise UnsupportedError("the block identity needs n >= 3")
    if base_b.rows != len(partition.base_space):
        raise DomainError("base matrix order does not match the base space")
    ident = ExactMatrix.identity(base_b.rows)
    out = p ** (n - 3) * base_b - p ** ((e - 1) * (n - 2) - 1) * ident
    if a == b:
        out = out + p ** (e * (n - 2)) * ident
    return out


# -------------------- export --------------------


def _token_grid(
    arr: np.ndarray, token: Callable[[str], str], first="", last=""
) -> np.ndarray:
    """A rows x (cols + 2) object array: column 0 holds ``first`` (one string
    per row, or one for all rows), columns 1..cols hold token(str(arr[i, j])),
    and the last column holds ``last``.

    The gather index is ``arr - min`` when the values span at most
    ``arr.size`` (every B: its entries lie in [0, theta]), and the inverse
    of ``np.unique`` otherwise (object arrays, wide-ranging int64)."""
    lo = hi = 0
    if arr.dtype != object and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
    if arr.dtype != object and hi - lo <= arr.size:
        values, index = range(lo, hi + 1), arr - lo
    else:
        distinct, inverse = np.unique(arr.ravel(), return_inverse=True)
        values, index = distinct.tolist(), inverse.reshape(arr.shape)
    table = np.array([token(str(v)) for v in values], dtype=object)
    grid = np.empty((arr.shape[0], arr.shape[1] + 2), dtype=object)
    grid[:, 0] = first
    grid[:, 1:-1] = table[index]
    grid[:, -1] = last
    return grid


def _join(grid: np.ndarray) -> str:
    return "".join(grid.ravel().tolist())


def _labels(labels: tuple[ProjectivePoint, ...] | None, count: int) -> list[str]:
    """Point labels, or the indices 0..count-1 when there are none."""
    if labels is not None:
        return [point_label(pt) for pt in labels]
    return [str(i) for i in range(count)]


def to_matrix_market(m: ExactMatrix) -> str:
    """Matrix Market dense array format (column-major), exact integers."""
    header = f"%%MatrixMarket matrix array integer general\n{m.rows} {m.cols}\n"
    return header + _join(_token_grid(m.array.T, lambda s: s + "\n"))


def to_csv(m: ExactMatrix) -> str:
    """CSV dump with point labels (or indices) as row/column headers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + _labels(m.col_labels, m.cols))
    # one single-field row per row label, so that csv quotes the labels
    # holding a comma; no label is empty or holds a newline
    writer.writerows([label] for label in _labels(m.row_labels, m.rows))
    header, *row_labels, _ = buf.getvalue().split("\n")
    return header + "\n" + _join(_token_grid(m.array, lambda s: "," + s, row_labels, "\n"))


def to_json(m: ExactMatrix) -> str:
    """JSON object with the shape, the point labels (or null) and the
    entries as decimal strings, which round-trip beyond 64 bits; laid out
    exactly as ``json.dumps(..., indent=2)`` lays out the full object."""
    obj = {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": [point_label(pt) for pt in m.row_labels] if m.row_labels else None,
        "col_labels": [point_label(pt) for pt in m.col_labels] if m.col_labels else None,
        # with no entries json renders the (empty) rows itself; otherwise
        # the entries are spliced in where this null ends the text
        "entries": None if m.array.size else [[] for _ in range(m.rows)],
    }
    text = json.dumps(obj, indent=2)
    if not m.array.size:
        return text
    grid = _token_grid(m.array, lambda s: f'      "{s}",\n', "    [\n", "    ],\n")
    # no comma after the last entry of a row, nor after the last row
    grid[:, -2] = _token_grid(m.array[:, -1:], lambda s: f'      "{s}"\n')[:, 1]
    # the text around the entries goes into the first and last cells, so
    # that the one join builds the whole export
    grid[0, 0] = text[: -len("null\n}")] + "[\n" + grid[0, 0]
    grid[-1, -1] = "    ]\n  ]\n}"
    return _join(grid)


def to_table(m: ExactMatrix) -> str:
    """Aligned text: one line per row, the row label (or index) padded to
    the longest label, then every entry right-justified to the longest
    entry, each after one space.  A matrix without rows gives ""."""
    arr = m.array
    # the longest entry is the largest or, with its sign, the smallest
    width = max(len(str(arr.max())), len(str(arr.min()))) if arr.size else 0
    labels = _labels(m.row_labels, m.rows)
    if m.row_labels is not None:
        labels = [f"({label})" for label in labels]
    lw = max(map(len, labels), default=0)
    labels = [label.ljust(lw) for label in labels]
    return _join(_token_grid(arr, lambda s: " " + s.rjust(width), labels, "\n"))


__all__ = [
    "ExactMatrix",
    "Permutation",
    "apply_simultaneous_permutation",
    "block_C",
    "block_C_reference",
    "build_A",
    "build_B_analytic",
    "build_B_product",
    "crt_permutation",
    "entry_b_uv",
    "tensor_product",
    "to_csv",
    "to_json",
    "to_matrix_market",
    "to_table",
]
