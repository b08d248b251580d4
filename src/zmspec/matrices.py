"""Dense exact integer matrices and the constructions built on them.

The incidence matrix A (1 where two points have vanishing inner
product), its Gram matrix B = A*A^t built two independent ways (exact
product and the closed-form prime-power entry), Kronecker products, the
CRT relabeling that exhibits B_{n,m} as a tensor product over the
prime-power factors, and the fiber-aligned blocks of B over a
K-partition.  A labelled matrix carries the space of its rows and that of
its columns, and a permutation is an int64 index array.  All arithmetic
is exact: every operation is one numpy expression in the dtype that
``_exact_dtype`` picks from a checked bound on the values it computes.  A
matrix product has three tiers: one float32 BLAS product while its
operand entries, products and partial sums stay below 2^24, one float64
BLAS product while they stay below 2^53, each exact there in any
summation order, and Python ints (an object array) above that.  Every
other operation runs in int64 while its values stay below 2^62, and on
Python ints above that.  Entries are stored apart from that rule, in the
narrowest signed dtype that holds the largest |entry|: int8, int16, int32
or int64 below 2^62, and object from there (``_storage_dtype``), never as
floats.  A is int8, and so is B while its entries stay below 2^7.

A and B are both Gram matrices, of the point coordinates (A is where
that one vanishes mod m) and of A's rows, and ``_fill_gram`` builds
both the same way: square tiles on and above the diagonal, each one BLAS
product in the tier of the whole product's bound, written at once into
the result, which is allocated in its storage dtype beforehand, and
mirrored below the diagonal.  No theta x theta temporary is made: the
coordinates' Gram matrix (bound n(m-1)^2, float32 for every benchmark
space) is cast per tile into the storage dtype of that bound, reduced
mod m and compared with 0, and A's rows enter B's product as float32
copies of two row panels of at most 384 rows, or theta/5 rows for a
larger theta, so below the int8 result's size once theta > 1536.  B's
storage dtype is fixed from its largest diagonal entry before the first
tile, which is its largest |entry| by Cauchy-Schwarz; a B of one tile is
one product, stored like any other.  On glibc the module keeps freed
blocks of up to 16 MiB in the heap (``_keep_freed_blocks``), so that
the next build reuses the pages of the last one's results and buffers
instead of faulting fresh ones in.

The closed-form B over p^e reads each entry from nu, the p-adic
valuation of the gcd of the 2x2 minors of the pair (capped at e), and
finds nu without forming a minor: for primitive u, v over Z_{p^e} and
1 <= k <= e, p^k divides every minor iff v = lambda * u (mod p^k) for a
unit lambda, so nu counts the levels k at which the two points have the
same ``projective.point_keys`` mod p^k (see ``build_B_analytic``).

The four export formats (Matrix Market, CSV, JSON, aligned table) are
rendered from one token table per matrix: each distinct entry value is
formatted once, as a full token with its separators, and the entries
pick their tokens one row block at a time (``_BLOCK_ENTRIES`` entries at
most), each block one gather and one join.  ``export_blocks`` yields the
blocks as they are made, so that a JSON or table export is written
without its text being held whole, and each ``to_*`` function returns
the join of the same blocks.
The output is byte-identical to earlier releases, which formatted every
entry on its own.
"""

from __future__ import annotations

import csv
import ctypes
import io
import json
import math
import operator
import sys
from collections.abc import Callable, Iterator

import numpy as np

from .counting import xi_data
from .errors import DomainError, UnsupportedError
from .modular import euler_phi
from .projective import KPartition, ProjectivePoint, ProjectiveSpace, point_keys

# below this, a sum of two values still fits int64
_INT64_LIMIT = 1 << 62
# every integer of absolute value at most this is a float32, or a float64
_FLOAT32_LIMIT = 1 << 24
_FLOAT64_LIMIT = 1 << 53
# the signed dtypes an ExactMatrix stores its entries in, each with the
# bound below which it holds every entry of either sign
_STORAGE = ((1 << 7, np.int8), (1 << 15, np.int16), (1 << 31, np.int32),
            (_INT64_LIMIT, np.int64))
# the entries of one row block of an export, or of one tile of trace_of_square
_BLOCK_ENTRIES = 1 << 16
# the largest sides of the square tiles of the Gram products
# (``_fill_gram``); every theta <= 217 of the verify grid is one tile.
# A's products have n terms, so its tiles are small.  B's have theta terms,
# and each float32 row panel of A they read takes 4 * side * theta bytes,
# so B's rows are cut into at most _B_PANELS panels: from theta = 5 * 384
# on, a panel then stays below the size of the int8 result, and A is
# converted in at most 15 panels (5 left, 10 right) whatever theta is
_A_TILE = 256
_B_TILE = 384
_B_PANELS = 5
# glibc's mallopt parameters (malloc.h) and the values _keep_freed_blocks
# gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 16 << 20
_TRIM_THRESHOLD = 32 << 20


def _keep_freed_blocks() -> None:
    """Have glibc's malloc serve blocks of up to 16 MiB from its heap and
    keep up to 32 MiB of free heap instead of handing it back.

    By default glibc maps each block above a threshold that starts at
    128 KiB and rises only to the largest mapped block freed so far, and
    returns the top of the heap to the system once more than twice that is
    free.  The tiled constructions free nothing larger than their theta^2
    results and buffers, so each build of A or B took every page of them
    from the system afresh: about 2600 minor faults a pass over the
    crosscheck benchmark and 8800 over build-export, kernel time whose cost
    varies with the load of the machine.  With both thresholds fixed, a
    freed block is reused by the next build, and those passes take none.
    Blocks above 16 MiB (an int8 theta x theta array once theta > 4096)
    are still mapped and unmapped on their own, which keeps a large single
    build from holding that much freed heap: on a shared 2-core Xeon the
    peak of ``spectrum --verify`` at (3,67) falls from 244 to 220 MiB and
    that of the CSV export of B_{3,67} rises from 137 to 144 MiB.  Nothing happens off Linux or where the C library has no
    mallopt (musl's does nothing)."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_freed_blocks()


def _exact_dtype(*bounds: int, blas: bool = False) -> type:
    """The dtype in which a computation runs, exact by its bounds:

    - a matrix product (``blas``) runs in float32 when every bound is
      below 2^24, in float64 when every bound is below 2^53, and in
      object (Python ints) otherwise;
    - any other operation runs in int64 when every bound is below 2^62,
      and in object otherwise.

    This is the only place the dtype of arithmetic is decided; where the
    result is stored is ``_storage_dtype``'s choice.  Callers pass a bound
    on the absolute value of every operand entry and of every partial and
    final result entry, so the int64 path can never wrap, whatever
    narrower dtype the operands are stored in.

    The float tiers are exact for the same reason.  A product passes
    max|a|, max|b| and max|a| * max|b| * inner, where inner is the shared
    dimension.  Every operand entry, every product a_ik * b_kj and every
    partial sum of such products is then an integer of absolute value
    below 2^24 (2^53), the range in which float32 (float64) holds every
    integer.  Each rounding step of the BLAS product therefore has an
    exactly representable result and returns it unchanged, whatever
    summation order, blocking or fused multiply-add the library uses.
    The result holds integers below the limit, which the cast into their
    storage dtype keeps exactly.  A product has no int64 tier: numpy has
    no BLAS for int64, and no product the package forms on a space within
    the guardrail gets near 2^53.  The Gram matrix of the coordinates,
    whose zeros mod m are A, has the bound n(m-1)^2 (n products of
    coordinates below m): float32 while n(m-1)^2 < 2^24, which holds for
    every (3,m) with m <= 2365 and every space of the benchmark, and
    float64 below 2^53.  B = A A^t has the bound theta, so it runs in
    float32 for every theta < 2^24; the certificate's products B V_lambda
    have the bound max|B| * theta, which is in the float32 tier for
    B_{3,36} (72 * 3276) and B_{4,12} (364 * 4800).  Both Gram products
    run in square tiles (``_fill_gram``), each one BLAS product in the
    tier of the whole, as the bound of a tile is that of the product.
    Other operations stay in integer dtypes, where floats would gain
    nothing.  The checks are plain comparisons, so they hold under
    ``python -O``."""
    bound = max(bounds)
    if blas:
        if bound < _FLOAT32_LIMIT:
            return np.float32
        return np.float64 if bound < _FLOAT64_LIMIT else object
    return np.int64 if bound < _INT64_LIMIT else object


def _storage_dtype(max_abs: int) -> type:
    """The dtype an ``ExactMatrix`` stores its entries in, given the largest
    |entry|: the narrowest of int8, int16, int32 and int64 whose bound in
    ``_STORAGE`` lies above it (int8 below 2^7, ..., int64 below 2^62), and
    object from 2^62, as ``_exact_dtype`` has no integer tier there.  Each
    signed dtype holds every value of absolute value below its bound."""
    return next((dtype for limit, dtype in _STORAGE if max_abs < limit), object)


def _integers(prod: np.ndarray) -> np.ndarray:
    """The entries of an exact float product, integers below 2^53, in
    their storage dtype."""
    top = max(-float(prod.min()), float(prod.max())) if prod.size else 0
    return prod.astype(_storage_dtype(int(top)))


def _exact_array(data) -> tuple[np.ndarray, int]:
    """``data`` as a read-only 2-d array in the dtype its largest |entry|
    gets from ``_storage_dtype``, together with that largest |entry|.  An
    array already in that dtype is shared, not copied.

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
        arr = np.array(flat, dtype=_storage_dtype(max_abs)).reshape(arr.shape)
    else:
        max_abs = max(-int(arr.min()), int(arr.max())) if arr.size else 0
        arr = arr.astype(_storage_dtype(max_abs), copy=False)
    # a view, so that a caller's own array keeps its flags
    arr = arr.view()
    arr.flags.writeable = False
    return arr, max_abs


class ExactMatrix:
    """Dense matrix of arbitrary-precision integers with optional point labels.

    ``row_labels`` and ``col_labels`` are each None or the ProjectiveSpace
    whose points index the rows or the columns, with exactly as many points
    as there are rows or columns.  The entries live in one read-only 2-d
    ndarray, stored in the dtype ``_storage_dtype`` picks for the largest
    |entry|: int8, int16, int32 or int64 below 2^62, an object array of
    Python ints from there.  Each operation states a bound on the values
    it computes and runs in the dtype ``_exact_dtype`` picks for that
    bound, int64 or a float tier whatever the operands are stored in, so a
    result is exact in every tier; then it is stored narrow again.  An
    ndarray passed in that is already in its storage dtype is shared, not
    copied, and no method writes to the array, so transposes and index
    views share memory too.  A matrix that is the left operand of a float
    product keeps the copy of its entries in that tier's dtype for later
    products.
    """

    __slots__ = ("_array", "_max_abs", "_float", "row_labels", "col_labels")

    def __init__(
        self,
        data: list[list[int]] | np.ndarray,
        row_labels: ProjectiveSpace | None = None,
        col_labels: ProjectiveSpace | None = None,
    ):
        self._array, self._max_abs = _exact_array(data)
        self._float: np.ndarray | None = None
        for side, labels, count in (("row", row_labels, self.rows),
                                    ("column", col_labels, self.cols)):
            if labels is not None and not (isinstance(labels, ProjectiveSpace)
                                           and len(labels) == count):
                raise DomainError(f"{side} labels must be a space of {count} points")
        self.row_labels = row_labels
        self.col_labels = col_labels

    # -------------------- constructors --------------------

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls(np.eye(k, dtype=np.int8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int8))

    # -------------------- access --------------------

    @property
    def array(self) -> np.ndarray:
        """The read-only entries, in their storage dtype (int8 up to int64,
        or object when some |entry| >= 2^62)."""
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

    def _float_copy(self, dtype: type) -> np.ndarray:
        """The entries in the float dtype of a product's tier, for the left
        operand of that product.  The copy is made once and kept (until a
        product in the other float tier replaces it), so that the products
        M @ X_1, M @ X_2, ... of one M (the blocks of the eigenbasis
        certificate) convert M once.  A right operand is converted afresh
        instead, so that its copy is freed with the product."""
        if self._float is None or self._float.dtype != dtype:
            self._float = self._array.astype(dtype)
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
            # one BLAS product, exact by the bound, cast into its storage
            # dtype; the right operand's copy is freed before the cast
            out = _integers(self._float_copy(dtype) @ other._as(dtype))
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
        return int(self._array.diagonal().sum(dtype=dtype))

    def trace_of_square(self) -> int:
        """trace(M @ M) without forming the product: the sum of
        M[t, s] * M[s, t]^T over square tiles of at most ``_BLOCK_ENTRIES``
        entries, each converted on its own, so that no whole copy of M and no
        strided transpose of it is made.  Every partial sum is bounded by
        max|M|^2 * order^2."""
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        dtype = _exact_dtype(self._max_abs, self._max_abs**2 * self.rows**2)
        side = max(1, math.isqrt(_BLOCK_ENTRIES))
        tiles = [slice(start, start + side) for start in range(0, self.rows, side)]
        x = self._array
        return sum(int(np.multiply(x[t, s], x[s, t].T, dtype=dtype).sum())
                   for t in tiles for s in tiles)

    def row_sums(self) -> list[int]:
        dtype = _exact_dtype(self._max_abs * self.cols)
        return self._array.sum(axis=1, dtype=dtype).tolist()


# -------------------- constructions --------------------


def _fill_gram(
    out: np.ndarray,
    x: np.ndarray,
    dtype: type,
    side: int,
    entry: Callable[[np.ndarray], np.ndarray] = lambda tile: tile,
) -> None:
    """Write entry(x @ x^T) into the square ``out``, one square tile of at
    most ``side`` rows at a time: the rows are cut into as few panels as
    that allows, all of one height but the last, which may be lower (a
    sliver panel would cost as many products as a full one).

    Each tile on or above the diagonal is one product in ``dtype``, exact by
    the caller's bound on x @ x^T (``_exact_dtype``), and is written into
    ``out`` through ``entry`` at once, which casts it into ``out``'s dtype;
    a tile above the diagonal is then mirrored below it, as x @ x^T is
    symmetric.  Every row panel x[rows] is converted to ``dtype`` once and
    each column panel once per tile, so no whole copy of x and no product
    wider than one tile is held.  A diagonal tile is a panel times its own
    transpose, which BLAS computes as a symmetric rank-k update.  The two
    panels and the tile live in three buffers allocated once, as a fresh
    allocation per tile would be paged in afresh each time."""
    order = x.shape[0]
    panels = max(1, -(-order // side))
    side = max(1, -(-order // panels))
    left_buf, right_buf = (np.empty((side, x.shape[1]), dtype) for _ in range(2))
    tile_buf = np.empty((side, side), dtype)
    for start in range(0, order, side):
        rows = slice(start, start + side)
        left = left_buf[: min(side, order - start)]
        np.copyto(left, x[rows])
        out[rows, rows] = entry(np.matmul(left, left.T, out=tile_buf[: len(left), : len(left)]))
        for col_start in range(start + side, order, side):
            cols = slice(col_start, col_start + side)
            right = right_buf[: min(side, order - col_start)]
            np.copyto(right, x[cols])
            out[rows, cols] = entry(np.matmul(left, right.T,
                                              out=tile_buf[: len(left), : len(right)]))
            out[cols, rows] = out[rows, cols].T


def build_A(space: ProjectiveSpace) -> ExactMatrix:
    """0/1 incidence matrix: entry 1 iff the points' inner product is 0 mod m.

    The inner products are the Gram matrix of the coordinates, each a sum
    of n products of entries below m, so bounded by n(m-1)^2: a float32
    product for every space with n(m-1)^2 < 2^24.  Each tile is cast into
    the storage dtype of that bound, reduced mod m and tested against 0."""
    m, coords = space.m.value, space.coords
    bound = space.n * (m - 1) ** 2
    dtype = _exact_dtype(m - 1, bound, blas=True)
    gram = _storage_dtype(bound)

    def vanishes(tile: np.ndarray) -> np.ndarray:
        residues = tile.astype(gram)
        residues %= m
        return residues == 0

    # a bool array is 0/1 in one byte, which is A's storage dtype
    incidence = np.empty((len(space), len(space)), dtype=bool)
    _fill_gram(incidence, coords, dtype, _A_TILE, vanishes)
    return ExactMatrix(incidence.view(np.int8), space, space)


def build_B_product(a: ExactMatrix) -> ExactMatrix:
    """Exact Gram matrix A @ A^t.

    In a float tier (float32 for a 0/1 A of order below 2^24) a product
    of more than one tile is written tile by tile (``_fill_gram``) into a
    result allocated in its storage dtype beforehand.  That dtype is the
    one of the largest diagonal entry, which is the largest |entry|: by
    Cauchy-Schwarz, |B_uv| = |<a_u, a_v>| <= sqrt(B_uu * B_vv) <=
    max(B_uu, B_vv).  The diagonal entries are sums of squares of A's
    entries, whose terms and partial sums are within the product's bound,
    so they are summed exactly in the product's float dtype.  A product of
    one tile (every verify order) is formed whole and stored in the dtype
    of its largest entry, which spares that extra pass over A."""
    if not a.is_square:
        raise DomainError("the incidence matrix must be square")
    top = a.max_abs()
    dtype = _exact_dtype(top, top * top * a.cols, blas=True)
    if dtype is object:
        return a @ a.transpose()
    x = a.array
    side = max(_B_TILE, -(-a.rows // _B_PANELS))
    if a.rows <= side:
        whole = x.astype(dtype)
        return ExactMatrix(_integers(whole @ whole.T), a.row_labels, a.row_labels)
    largest = np.einsum("ij,ij->i", x, x, dtype=dtype).max(initial=0)
    out = np.empty(x.shape, dtype=_storage_dtype(int(largest)))
    _fill_gram(out, x, dtype, side)
    return ExactMatrix(out, a.row_labels, a.row_labels)


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

    Entry (u, v) is entry nu of ``_entry_table``, where nu is min(e, the
    least valuation of a nonzero 2x2 minor of u and v).  For primitive u,
    v over Z_{p^e} and 1 <= k <= e, p^k divides every 2x2 minor iff
    v = lambda * u (mod p^k) for a unit lambda.  (If so, the minors
    u_i v_j - u_j v_i vanish mod p^k.  Conversely, u has a coordinate u_i
    prime to p; from u_i v_j = u_j v_i (mod p^k), lambda = v_i / u_i
    works, and it is a unit because v is primitive.)  So nu is the number
    of levels k at which u and v have the same ``point_keys`` mod p^k: e
    outer equalities of one theta-vector, with no minor, no enumeration
    and no product, which keeps this construction independent of
    ``build_B_product``.  ``entry_b_uv`` computes the same entry from the
    minors, one pair at a time.

    Composite moduli are rejected: the entry formula only exists for
    p^e; general m is covered by the product route or the tensor route.
    """
    if not space.m.is_prime_power:
        raise UnsupportedError(
            f"the closed-form entry needs a prime-power modulus, got {space.m.value}"
        )
    p, e = space.m.prime_power()
    # nu <= e < 2^8: p^e <= theta, so e is below log2 of the space's size
    nu = np.zeros((len(space), len(space)), dtype=np.uint8)
    for k in range(1, e + 1):
        keys = point_keys(space.coords, p**k)
        nu += np.equal.outer(keys, keys)
    entries = _entry_table(p, e, space.n)
    by_nu = np.array(entries, dtype=_storage_dtype(max(entries)))
    return ExactMatrix(by_nu[nu], space, space)


def tensor_product(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product; row (i1, i2) of the result is flat index i1*rows2 + i2.

    Each entry is one product, computed in the dtype of the bound and
    written into a result allocated in the storage dtype of that bound."""
    a, b = m1.max_abs(), m2.max_abs()
    x, y = m1.array, m2.array
    out = np.empty((m1.rows, m2.rows, m1.cols, m2.cols), dtype=_storage_dtype(a * b))
    np.multiply(x[:, None, :, None], y[None, :, None, :], out=out,
                dtype=_exact_dtype(a, b, a * b), casting="unsafe")
    return ExactMatrix(out.reshape(m1.rows * m2.rows, m1.cols * m2.cols))


def crt_permutation(
    s1: ProjectiveSpace, s2: ProjectiveSpace, big: ProjectiveSpace
) -> np.ndarray:
    """Bijection from pair indices of s1 x s2, where s1 = P_{n,m1} and
    s2 = P_{n,m2} (pair-lex order, flat index i1*theta2 + i2), onto
    indices of big = P_{n,m1*m2}, sending (u, v) to the class of the
    coordinatewise CRT lift, as the read-only int64 array ``forward``
    with forward[i1*theta2 + i2] the index in ``big``.

    Nothing is enumerated: each point of ``big`` reduces mod m1 and mod
    m2 to its pair, located by ``positions`` in s1 and s2, which gives the
    inverse map directly.  Every space keeps its own ordering."""
    m1, m2 = s1.m.value, s2.m.value
    if math.gcd(m1, m2) != 1:
        raise DomainError(f"{m1} and {m2} are not coprime")
    if big.m.value != m1 * m2 or not s1.n == s2.n == big.n:
        raise DomainError(f"P_{{{big.n},{big.m.value}}} is not the CRT product of "
                          f"P_{{{s1.n},{m1}}} and P_{{{s2.n},{m2}}}")
    forward = np.full(len(big), -1, dtype=np.int64)
    forward[s1.positions(big.coords) * len(s2) + s2.positions(big.coords)] = np.arange(len(big))
    if (forward < 0).any():
        raise DomainError("the CRT map does not reach every pair")
    forward.flags.writeable = False
    return forward


def is_permutation(forward, size: int) -> bool:
    """Whether ``forward`` is a permutation of range(size): a 1-d integer
    array holding each of 0, ..., size - 1 once."""
    f = np.asarray(forward)
    return f.ndim == 1 and f.dtype.kind in "iu" and np.array_equal(np.sort(f), np.arange(size))


def apply_simultaneous_permutation(m: ExactMatrix, forward: np.ndarray) -> ExactMatrix:
    """Conjugate by the permutation matrix P with P[i, forward[i]] = 1,
    i.e. entry (i, j) of the result is entry (forward[i], forward[j]) of m.
    ``forward`` must be an integer array holding each row index once.  The
    result is unlabelled."""
    if not m.is_square:
        raise DomainError("simultaneous permutation needs a square matrix")
    f = np.asarray(forward)
    if not is_permutation(f, m.rows):
        raise DomainError(f"not a permutation of the {m.rows} rows")
    return ExactMatrix(m.array[np.ix_(f, f)])


def block_C(a: int, b: int, partition: KPartition, big_b: ExactMatrix) -> ExactMatrix:
    """The K_a x K_b block of B, rows/columns aligned by base-point position
    so that pairs with equal reductions sit on the block diagonal.  It is
    unlabelled: no space has the points of one class K_a.

    B's rows follow the space of its row labels, which must be P_{n,m} of
    the partition (DomainError otherwise), and the partitioned space's
    order when it has none.  A B labelled by the partitioned space itself
    is indexed by the partition's positions directly; over another space
    object its rows are found by ``positions`` in B's space, which sorts
    its point keys once for all the blocks."""
    if not 0 <= a < partition.l or not 0 <= b < partition.l:
        raise DomainError(f"class indices must lie in [0, {partition.l})")
    space, rows = partition.space, big_b.row_labels
    if big_b.rows != len(space):
        raise DomainError("matrix order does not match the partitioned space")
    positions = partition.positions
    # B over the partitioned space itself has its rows at the positions already
    if rows is not None and rows is not space:
        if (rows.n, rows.m) != (space.n, space.m):
            raise DomainError(f"B is labelled by P_{{{rows.n},{rows.m.value}}}, not by "
                              f"the partitioned P_{{{space.n},{space.m.value}}}")
        # the row of B holding each point of the partition
        positions = rows.positions(space.coords)[positions]
    return ExactMatrix(big_b.array[np.ix_(positions[a], positions[b])])


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


def _render(
    arr: np.ndarray,
    token: Callable[[str], str],
    first: str | list[str] = "",
    last: str | list[str] = "",
    last_token: Callable[[str], str] | None = None,
) -> Iterator[str]:
    """The text of ``arr``, one string per block of whole rows, each block
    of at most ``_BLOCK_ENTRIES`` entries or one row: each row is
    ``first`` (one string per row, or one for all rows), then
    token(str(v)) for every entry v, or last_token(str(v)) for the row's
    last entry when given, then ``last`` (likewise).

    Each distinct value is formatted once, into a token table.  An entry
    finds its token at ``entry - min`` when the values span at most
    ``arr.size`` (every B: its entries lie in [0, theta]), and at its
    place among the sorted distinct values otherwise (object arrays,
    wide-ranging int64)."""
    lo = hi = 0
    if arr.dtype != object and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
    if arr.dtype != object and hi - lo <= arr.size:
        values = range(lo, hi + 1)

        def index(block: np.ndarray) -> np.ndarray:
            return block.astype(np.intp) - lo
    else:
        distinct = np.unique(arr)
        values = distinct.tolist()

        def index(block: np.ndarray) -> np.ndarray:
            return np.searchsorted(distinct, block)
    table = np.array([token(str(v)) for v in values], dtype=object)
    if last_token is not None:
        last_table = np.array([last_token(str(v)) for v in values], dtype=object)
    step = max(1, _BLOCK_ENTRIES // max(arr.shape[1], 1))
    for start in range(0, arr.shape[0], step):
        rows = slice(start, start + step)
        idx = index(arr[rows])
        grid = np.empty((idx.shape[0], idx.shape[1] + 2), dtype=object)
        grid[:, 0] = first if isinstance(first, str) else first[rows]
        grid[:, 1:-1] = table[idx]
        if last_token is not None:
            grid[:, -2] = last_table[idx[:, -1]]
        grid[:, -1] = last if isinstance(last, str) else last[rows]
        yield "".join(grid.ravel().tolist())


def _labels(labels: ProjectiveSpace | None, count: int) -> list[str]:
    """Point labels, or the indices 0..count-1 when there are none."""
    if labels is not None:
        return list(labels.labels)
    return [str(i) for i in range(count)]


def _matrix_market(m: ExactMatrix) -> Iterator[str]:
    yield f"%%MatrixMarket matrix array integer general\n{m.rows} {m.cols}\n"
    yield from _render(m.array.T, lambda s: s + "\n")


def _csv(m: ExactMatrix) -> Iterator[str]:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + _labels(m.col_labels, m.cols))
    # one single-field row per row label, so that csv quotes the labels
    # holding a comma; no label is empty or holds a newline
    writer.writerows([label] for label in _labels(m.row_labels, m.rows))
    header, *row_labels, _ = buf.getvalue().split("\n")
    yield header + "\n"
    yield from _render(m.array, lambda s: "," + s, row_labels, "\n")


def _json(m: ExactMatrix) -> Iterator[str]:
    obj = {
        "rows": m.rows,
        "cols": m.cols,
        "row_labels": None if m.row_labels is None else _labels(m.row_labels, m.rows),
        "col_labels": None if m.col_labels is None else _labels(m.col_labels, m.cols),
        # with no entries json renders the (empty) rows itself; otherwise
        # the entries are spliced in where this null ends the text
        "entries": None if m.array.size else [[] for _ in range(m.rows)],
    }
    text = json.dumps(obj, indent=2)
    if not m.array.size:
        yield text
        return
    yield text[: -len("null\n}")] + "[\n"
    # no comma after the last entry of a row, nor after the last row
    ends = ["    ],\n"] * (m.rows - 1) + ["    ]\n"]
    yield from _render(m.array, lambda s: f'      "{s}",\n', "    [\n", ends,
                       lambda s: f'      "{s}"\n')
    yield "  ]\n}"


def _table(m: ExactMatrix) -> Iterator[str]:
    arr = m.array
    # the longest entry is the largest or, with its sign, the smallest
    width = max(len(str(arr.max())), len(str(arr.min()))) if arr.size else 0
    labels = _labels(m.row_labels, m.rows)
    if m.row_labels is not None:
        labels = [f"({label})" for label in labels]
    lw = max(map(len, labels), default=0)
    labels = [label.ljust(lw) for label in labels]
    return _render(arr, lambda s: " " + s.rjust(width), labels, "\n")


_EXPORTS = {"matrixmarket": _matrix_market, "csv": _csv, "json": _json, "table": _table}


def export_blocks(m: ExactMatrix, fmt: str) -> Iterator[str]:
    """The export of ``m`` in ``fmt`` ("matrixmarket", "csv", "json" or
    "table") as consecutive pieces of text, each made when it is asked
    for: the format's header, if any, the row blocks, and the footer of
    JSON.  Their join is what
    ``to_matrix_market``, ``to_csv``, ``to_json`` and ``to_table``
    return."""
    if fmt not in _EXPORTS:
        raise DomainError(f"unknown export format {fmt!r}; choose from {sorted(_EXPORTS)}")
    return _EXPORTS[fmt](m)


def to_matrix_market(m: ExactMatrix) -> str:
    """Matrix Market dense array format (column-major), exact integers."""
    return "".join(_matrix_market(m))


def to_csv(m: ExactMatrix) -> str:
    """CSV dump with point labels (or indices) as row/column headers."""
    return "".join(_csv(m))


def to_json(m: ExactMatrix) -> str:
    """JSON object with the shape, the point labels (or null) and the
    entries as decimal strings, which round-trip beyond 64 bits; laid out
    exactly as ``json.dumps(..., indent=2)`` lays out the full object."""
    return "".join(_json(m))


def to_table(m: ExactMatrix) -> str:
    """Aligned text: one line per row, the row label (or index) padded to
    the longest label, then every entry right-justified to the longest
    entry, each after one space.  A matrix without rows gives ""."""
    return "".join(_table(m))


__all__ = [
    "ExactMatrix",
    "apply_simultaneous_permutation",
    "block_C",
    "block_C_reference",
    "build_A",
    "build_B_analytic",
    "build_B_product",
    "crt_permutation",
    "entry_b_uv",
    "export_blocks",
    "is_permutation",
    "tensor_product",
    "to_csv",
    "to_json",
    "to_matrix_market",
    "to_table",
]
