"""Dense exact integer matrices and the constructions built on them.

The incidence matrix A (1 where two points have vanishing inner
product), its Gram matrix B = A*A^t built two independent ways (exact
product and the closed-form prime-power entry), Kronecker products, the
CRT relabeling that exhibits B_{n,m} as a tensor product over the
prime-power factors, and the whole k-grouped B that the paper's block
identity predicts from the B one level down.  A labelled matrix is
square and carries the one space whose points index both its rows and
its columns, and a permutation is an int64 index array.  All arithmetic
is exact, and one rule, ``_storage_dtype``, picks every integer dtype
from a checked bound: the narrowest of int8, int16, int32 and int64 that
holds every value below the bound (2^7, 2^15, 2^31 and 2^62), and Python
ints (an object array) from 2^62.  Entries are stored in the dtype of
their largest |entry|, never as floats, so A is int8, and so is B while
its entries stay below 2^7.  Every other integer operation (sums,
differences, scalar products, traces, Kronecker products and the
certificate's comparisons) is one numpy expression in the dtype of
a bound on its operands, partial sums and results.  A matrix product
instead runs in the tier ``_product_dtype`` picks: one BLAS product in
float32 while its operand entries, products and partial sums stay below
2^24, in float64 while they stay below 2^53, each exact there in any
summation order, and Python ints above that.

A and B are both Gram matrices, of the point coordinates (A is where
that one vanishes mod m) and of A's rows, and both are built from the
tiles of one generator, ``_tiles``: square tiles on and above the
diagonal, each one product in the tier of the whole product's bound,
written at once into the result, which is allocated in its storage dtype
beforehand, and mirrored below the diagonal.  No theta x theta temporary
is made: the coordinates' Gram matrix (bound n(m-1)^2, float32 for every
benchmark space) is cast per tile into the storage dtype of that bound,
reduced mod m and compared with 0, and A's rows enter B's product as
float32 copies of a row panel of at most 384 rows, or theta/5 rows for a
larger theta, so below the int8 result's size once theta > 1536, and of
a packed column panel.  B's storage dtype is fixed from its largest
diagonal entry d before the first tile, which is its largest |entry| by
Cauchy-Schwarz.  That bound also packs B's product: A is 0/1, so every
term of A A^t is a non-negative integer, and a float32 of the product
carries k entries of B in fields of b = d.bit_length() bits, exactly
while d * (1 + 2^b + ... + 2^(b(k-1))) < 2^24, since no partial sum
exceeds the final one (``build_B_product``).  k is 4 for B_{3,32}
(d = 48), 3 for B_{3,67} (68) and 2 for B_{4,12} (364), so B takes k
times fewer flops; a B of one tile (theta <= 384) is not packed.  The
eigenbasis certificate's residual M V = V D
(``ExactMatrix.scales_columns``) runs through the same tiles, with V^T
unpacked in place of the column panel (V is signed, and the bound
max|B| * max|V| * theta leaves no room for a second field), and compares
each tile as it is made.  The one product outside the tiles is
``ExactMatrix.matvec``, a matrix times one vector.

The closed-form B over p^e reads each entry from nu, the p-adic
valuation of the gcd of the 2x2 minors of the pair (capped at e), and
finds nu without forming a minor: for primitive u, v over Z_{p^e} and
1 <= k <= e, p^k divides every minor iff v = lambda * u (mod p^k) for a
unit lambda, so nu counts the levels k at which the two points have the
same ``projective.point_keys`` mod p^k (see ``build_B_analytic``).

The four export formats (Matrix Market, CSV, JSON, aligned table) are
rendered from one token table per matrix: each distinct entry value is
formatted once, as a full token with its separators, stored as UTF-8
bytes padded with NULs to the longest token, and the entries pick their
tokens one row block at a time (``_BLOCK_ENTRIES`` entries at most).  A
block is one uint8 buffer filled by ``np.take`` from the token table,
whose NUL padding one ``bytes.translate`` deletes (``_render`` says why
that is exact).  ``export_blocks`` yields the blocks as they are made,
so that a JSON or table export is written without its text being held
whole, and each ``to_*`` function returns the join of the same blocks.
The output is byte-identical to earlier releases, which formatted every
entry on its own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .counting import xi_data
from .errors import DomainError, UnsupportedError
from .modular import is_prime
from .projective import ProjectivePoint, ProjectiveSpace, point_keys, theta

# every integer of absolute value at most this is a float32, or a float64
_FLOAT32_LIMIT = 1 << 24
_FLOAT64_LIMIT = 1 << 53
# the signed dtypes of every integer the module stores or computes, each
# with the bound below which it holds every value of either sign; int64
# stops at 2^62, below which a sum of two values still fits it
_STORAGE = ((1 << 7, np.int8), (1 << 15, np.int16), (1 << 31, np.int32), (1 << 62, np.int64))
# the entries of one row block of an export, or of one tile of trace_of_square
_BLOCK_ENTRIES = 1 << 16
# the largest sides of the square tiles of the Gram products and of the
# certificate's residual (``_tiles``); every theta <= 217 of the verify
# grid is one tile.
# A's products have n terms, so its tiles are small.  B's have theta terms,
# and each float32 row panel of A they read takes 4 * side * theta bytes,
# so B's rows are cut into at most _B_PANELS panels: from theta = 5 * 384
# on, a panel then stays below the size of the int8 result, and A is
# converted in 5 left panels and 15 packed right ones whatever theta is,
# each of those side / k rows for the k fields of ``_packing``, or in 5
# left and 10 right panels of side rows with k = 1, whose diagonal tiles
# reuse the left panel
_A_TILE = 256
_B_TILE = 384
_B_PANELS = 5


def _product_dtype(*bounds: int) -> type:
    """The dtype in which a matrix product runs, exact by its bounds:
    float32 when every bound is below 2^24, float64 when every bound is
    below 2^53, and object (Python ints) otherwise.

    A product passes max|a|, max|b| and max|a| * max|b| * inner, where
    inner is the shared dimension.  Every operand entry, every product
    a_ik * b_kj and every partial sum of such products is then an integer
    of absolute value below 2^24 (2^53), the range in which float32
    (float64) holds every integer.  Each rounding step of the BLAS product
    therefore has an exactly representable result and returns it
    unchanged, whatever summation order, blocking or fused multiply-add
    the library uses.  The result holds integers below the limit, which
    the cast into their storage dtype keeps exactly.  A product has no
    integer tier: numpy has no BLAS for integers, and no product the
    package forms on a space within the guardrail gets near 2^53.  The
    Gram matrix of the coordinates, whose zeros mod m are A, has the bound
    n(m-1)^2 (n products of coordinates below m): float32 while
    n(m-1)^2 < 2^24, which holds for every (3,m) with m <= 2365 and every
    space of the benchmark, and float64 below 2^53.  B = A A^t has the
    bound theta, so it runs in float32 for every theta < 2^24, and for a
    non-negative A it packs several entries of B into each float32, a
    product whose bound is the packed entry, which ``_packing`` keeps
    below 2^24 (``build_B_product`` says why that is exact); the
    certificate's product B V has the bound max|B| * theta, which is in
    the float32 tier for B_{3,36} (72 * 3276) and B_{4,12} (364 * 4800).
    The Gram products and B V run in square tiles (``_tiles``), each one
    product in the tier of the whole, as the bound of a tile is that of
    the product, and a matrix times a vector is ``ExactMatrix.matvec``.
    The checks are plain comparisons, so they hold under ``python -O``."""
    bound = max(bounds)
    if bound < _FLOAT32_LIMIT:
        return np.float32
    return np.float64 if bound < _FLOAT64_LIMIT else object


def _storage_dtype(*bounds: int) -> type:
    """The integer dtype of every value the module stores or computes
    outside a matrix product, exact by its bounds: the narrowest of int8,
    int16, int32 and int64 whose limit in ``_STORAGE`` lies above every
    bound (int8 below 2^7, ..., int64 below 2^62), and object (Python
    ints) from 2^62.  Each signed dtype holds every value of absolute
    value below its limit.

    An ``ExactMatrix`` passes its largest |entry|.  An operation passes a
    bound on the absolute value of every operand entry and of every
    partial and final result entry, so it can never wrap, and each
    operand's own storage dtype casts safely into the one it gets."""
    return next((dtype for limit, dtype in _STORAGE if max(bounds) < limit), object)


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
    """Dense matrix of arbitrary-precision integers, optionally labelled.

    ``space`` is None or the ProjectiveSpace whose points index both the
    rows and the columns, so a labelled matrix is square, of the order of
    its space.  The entries live in one read-only 2-d ndarray, stored in
    the dtype ``_storage_dtype`` picks for the largest |entry|: int8,
    int16, int32 or int64 below 2^62, an object array of Python ints from
    there.  Each operation states a bound on the values it computes and
    runs in the dtype that bound gets, from the same rule, or from
    ``_product_dtype``'s tiers for a product, so a result is exact in every
    dtype; then it is stored narrow again.  An ndarray passed in that is
    already in its storage dtype is shared, not copied, and no method
    writes to the array.  A matrix that ``matvec`` multiplied in a float
    tier keeps the copy of its entries in that tier's dtype for later
    calls.
    """

    __slots__ = ("_array", "_max_abs", "_float", "space")

    def __init__(self, data: list[list[int]] | np.ndarray, space: ProjectiveSpace | None = None):
        self._array, self._max_abs = _exact_array(data)
        self._float: np.ndarray | None = None
        if space is not None and not (isinstance(space, ProjectiveSpace)
                                      and len(space) == self.rows == self.cols):
            raise DomainError(f"the labels of a {self.rows}x{self.cols} matrix must be a space "
                              "of as many points as it has rows and columns")
        self.space = space

    # -------------------- constructors --------------------

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls(np.eye(k, dtype=_storage_dtype(1)))

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

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        dtype = _storage_dtype(self._max_abs + other._max_abs)
        return ExactMatrix(self._as(dtype) + other._as(dtype), self.space)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        dtype = _storage_dtype(self._max_abs + other._max_abs)
        return ExactMatrix(self._as(dtype) - other._as(dtype), self.space)

    def __mul__(self, scalar: int) -> "ExactMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        s = int(scalar)
        # s is within the bound, so it keeps the array's dtype
        dtype = _storage_dtype(abs(s), self._max_abs, abs(s) * self._max_abs)
        return ExactMatrix(self._as(dtype) * s, self.space)

    __rmul__ = __mul__

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self._array.shape != other._array.shape:
            raise DomainError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def matvec(self, vec: list[int] | tuple[int, ...]) -> list[int]:
        """Exact matrix-vector product; the entries of ``vec`` must be
        integers, as the constructor's are.

        The product runs in the tier of the bound max|M| * max|vec| * cols
        (``_product_dtype``).  In a float tier it multiplies a copy of M's
        entries in that tier's dtype, which M keeps until a call in the
        other float tier replaces it, so that a loop of calls on one M, such
        as the residual checks of an eigenvector family, converts M once:
        448 calls on B_{3,16} took 18-27 ms against 33-43 ms with M
        converted on every call, on a shared 2-core Xeon.  The vector is converted
        afresh each time, and the exact float result is cast into the
        storage dtype of the bound."""
        if len(vec) != self.cols:
            raise DomainError(f"vector length {len(vec)} does not match {self.cols} columns")
        row, top = _exact_array([list(vec)])
        bound = self._max_abs * top * self.cols
        dtype = _product_dtype(self._max_abs, top, bound)
        if dtype is object:
            return (self._as(dtype) @ row[0].astype(dtype)).tolist()
        if self._float is None or self._float.dtype != dtype:
            self._float = self._array.astype(dtype)
        return (self._float @ row[0].astype(dtype)).astype(_storage_dtype(bound)).tolist()

    def scales_columns(self, v: "ExactMatrix", tags: Sequence[int]) -> bool:
        """Whether M @ V == V diag(tags), i.e. M maps column j of V to
        tags[j] times itself, for every j.

        M V is formed in the square tiles of ``_tiles``, as B is, with
        M's rows as the left operand and a contiguous copy of V^T as the
        right one: each tile is one BLAS product in the tier of the bound
        max|M| * max|V| * order (``_product_dtype``), and M's kept float
        copy is neither made nor used.  Each tile is compared with
        V[rows, cols] * tags[cols] in the dtype ``_storage_dtype`` gives
        max|V|, max|tags|, that bound and max|V| * max|tags|, which holds
        both sides and the tags: int16 for B_{3,10} (18 * 217 below 2^15),
        int32 for B_{3,67} (68 * 4557), Python ints from 2^62, so no float
        enters the comparison and nothing can overflow.  The first tile
        that differs ends the check.  Raises DomainError unless M is
        square, V has as many rows as M and there is one tag per column of
        V."""
        tags = [operator.index(lam) for lam in tags]
        if not (self.is_square and v.rows == self.rows and len(tags) == v.cols):
            raise DomainError(f"M {self.rows}x{self.cols}, V {v.rows}x{v.cols} and "
                              f"{len(tags)} tags do not fit")
        a, b = self._max_abs, v._max_abs
        dtype = _product_dtype(a, b, a * b * self.cols)
        top = max(map(abs, tags), default=0)
        compare = _storage_dtype(b, top, a * b * self.cols, b * top)
        scale = np.array(tags, dtype=compare)
        side = max(_B_TILE, -(-self.rows // _B_PANELS))
        return all(
            np.array_equal(tile.astype(compare),
                           np.multiply(v.array[rows, cols], scale[cols], dtype=compare))
            for rows, cols, tile in _tiles(self._array, v.array.T.copy(), dtype, side))

    def trace(self) -> int:
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        dtype = _storage_dtype(self._max_abs * self.rows)
        return int(self._array.diagonal().sum(dtype=dtype))

    def trace_of_square(self) -> int:
        """trace(M @ M) without forming the product: the sum of
        M[t, s] * M[s, t]^T over square tiles of at most ``_BLOCK_ENTRIES``
        entries, each converted on its own, so that no whole copy of M and no
        strided transpose of it is made.  Every partial sum is bounded by
        max|M|^2 * order^2."""
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        dtype = _storage_dtype(self._max_abs, self._max_abs**2 * self.rows**2)
        side = max(1, math.isqrt(_BLOCK_ENTRIES))
        tiles = [slice(start, start + side) for start in range(0, self.rows, side)]
        x = self._array
        return sum(int(np.multiply(x[t, s], x[s, t].T, dtype=dtype).sum())
                   for t in tiles for s in tiles)


# -------------------- constructions --------------------


def _tiles(x: np.ndarray, y: np.ndarray, dtype: type, side: int, fields: int = 1,
           bits: int = 0) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """(rows, cols, x[rows] @ y[cols]^T) over square tiles of at most
    ``side`` rows: the rows of x are cut into as few panels as that allows,
    all of one height but the last, which may be lower (a sliver panel
    would cost as many products as a full one), and the rows of y into
    panels of the same height.

    With ``fields`` = k > 1 the rows of y enter packed, k to a row: row g
    of the panel y[cols] becomes sum_i 2^(bits*i) * y[cols.start + g*k + i]
    (a missing row counts as 0), so the tile has ceil(len(cols) / k)
    columns, and its column g holds the products with rows
    cols.start + g*k + i in bit fields of ``bits`` bits, field i at bit
    bits*i.  The panel height is then rounded up to a multiple of k, so
    that every panel starts at a field boundary.  The caller unpacks the
    fields, and the bound it passes must cover the packed products
    (``build_B_product``).  The first tile is the largest in both axes.

    Each tile is one product in ``dtype``, exact by the caller's bound on
    the whole product (``_product_dtype``), as the bound of a tile is that of
    the product.  With y = x (the same array) only the tiles on and above
    the diagonal are yielded, x @ x^T being symmetric, and with one field a
    diagonal tile is a panel times its own transpose, which BLAS computes
    as a symmetric rank-k update.  Every row panel x[rows] is converted to
    ``dtype`` once and each column panel once per tile (packed by Horner's
    rule in place, from the top field down), so no whole copy of x or y
    and no product wider than one tile is held.  The two panels and the
    tile live in three buffers allocated once, as a fresh allocation per
    tile would be paged in afresh each time; a tile is overwritten by the
    next one."""
    order = x.shape[0]
    panels = max(1, -(-order // side))
    side = fields * max(1, -(-order // (panels * fields)))
    left_buf = np.empty((side, x.shape[1]), dtype)
    right_buf = np.empty((side // fields, y.shape[1]), dtype)
    tile_buf = np.empty((side, side // fields), dtype)
    for start in range(0, order, side):
        rows = slice(start, start + side)
        left = left_buf[: min(side, order - start)]
        np.copyto(left, x[rows])
        for col_start in range(start if y is x else 0, y.shape[0], side):
            cols = slice(col_start, col_start + side)
            right = left
            if y is not x or col_start != start or fields > 1:
                right = right_buf[: -(-min(side, y.shape[0] - col_start) // fields)]
                top = y[col_start + fields - 1 : cols.stop : fields]
                np.copyto(right[: len(top)], top)
                right[len(top) :] = 0
                for i in reversed(range(fields - 1)):
                    right *= 1 << bits
                    part = y[col_start + i : cols.stop : fields]
                    right[: len(part)] += part
            yield rows, cols, np.matmul(left, right.T, out=tile_buf[: len(left), : len(right)])


def build_A(space: ProjectiveSpace) -> ExactMatrix:
    """0/1 incidence matrix: entry 1 iff the points' inner product is 0 mod m.

    The inner products are the Gram matrix of the coordinates, each a sum
    of n products of entries below m, so bounded by n(m-1)^2: a float32
    product for every space with n(m-1)^2 < 2^24.  Each tile (``_tiles``)
    is cast into the storage dtype of that bound, reduced mod m, tested
    against 0 into the result and mirrored below the diagonal."""
    m, coords = space.m.value, space.coords
    bound = space.n * (m - 1) ** 2
    dtype = _product_dtype(m - 1, bound)
    incidence = np.empty((len(space), len(space)), dtype=_storage_dtype(1))
    for rows, cols, tile in _tiles(coords, coords, dtype, _A_TILE):
        residues = tile.astype(_storage_dtype(bound))
        residues %= m
        incidence[rows, cols] = residues == 0
        incidence[cols, rows] = incidence[rows, cols].T
    return ExactMatrix(incidence, space)


def _packing(largest: int) -> tuple[int, int]:
    """(k, b): the number k of entries of B = A A^t that one float32 of the
    packed product carries, each in a field of b bits, for a non-negative A
    whose largest diagonal entry of B is ``largest``.

    b = largest.bit_length(), so every entry, at most ``largest`` by
    Cauchy-Schwarz, fits its field, and k is the largest count with
    largest * (1 + 2^b + ... + 2^(b(k-1))) < 2^24, the bound of a packed
    entry: 4 for B_{3,10} (18, b = 5), B_{3,27} and B_{3,32}, 3 for B_{4,8}
    and B_{3,67}, 2 for B_{4,12} (364, b = 9), and 1 from largest = 2^12 on.
    An empty or zero A gets one field."""
    bits, fields = largest.bit_length(), 1
    while largest and largest * sum(1 << bits * i for i in range(fields + 1)) < _FLOAT32_LIMIT:
        fields += 1
    return fields, bits


def build_B_product(a: ExactMatrix) -> ExactMatrix:
    """Exact Gram matrix A @ A^t, labelled by A's space.

    It is written tile by tile (``_tiles``) into a result allocated in its
    storage dtype beforehand, each tile mirrored below the diagonal, in
    the tier of the bound max|A|^2 * order: float32 for a 0/1 A of order
    below 2^24, Python ints from 2^53.  The storage dtype is the one of
    the largest diagonal entry, which is the largest |entry|: by
    Cauchy-Schwarz, |B_uv| = |<a_u, a_v>| <= sqrt(B_uu * B_vv)
    <= max(B_uu, B_vv).  The diagonal entries are sums of squares of A's
    entries, whose terms and partial sums are within the product's bound,
    so they are summed exactly in the product's dtype.

    A non-negative A in the float32 tier is multiplied by a packed right
    operand: k of its rows to a row, row i of a group in a field of b bits
    (``_packing``), so each tile needs k times fewer flops.  That is exact:
    every term of the packed product is a non-negative integer, so every
    partial sum is at most the packed entry sum_i 2^(b*i) * B[u, g*k + i],
    which is at most largest * sum_i 2^(b*i) < 2^24, and float32 holds
    each one in any summation order (as do the operands, whose entries are
    at most that bound too).  Each B entry is at most the largest diagonal
    entry, below 2^b, so the packed entry is B's entries written in base
    2^b, and the fields of its int32 copy, (entry >> b*i) & (2^b - 1), are
    the entries themselves, each written straight into its strided column
    slice of the result.  A signed A (whose products could borrow across
    fields), an empty one and the float64 and object tiers take one
    field, the plain product, and so does a product of one tile (order at
    most ``_B_TILE``, as every space of the benchmark's verify grid): the
    4k numpy calls that pack and unpack a tile cost more there than the
    flops they save, B_{3,8} (order 112, k = 6) taking 99 us packed
    against 71 us plain, and a diagonal tile is a symmetric product of
    half the flops anyway.  From two tiles on, packing pays: B_{4,8}
    (960) takes 4.5 against 6.0 ms."""
    if not a.is_square:
        raise DomainError("the incidence matrix must be square")
    top = a.max_abs()
    dtype = _product_dtype(top, top * top * a.cols)
    x = a.array
    largest = int(np.einsum("ij,ij->i", x, x, dtype=dtype).max(initial=0))
    side = max(_B_TILE, -(-a.rows // _B_PANELS))
    fields, bits = 1, 0
    if dtype is np.float32 and a.rows > side and x.min(initial=0) >= 0:
        fields, bits = _packing(largest)
    out = np.empty(x.shape, dtype=_storage_dtype(largest))
    ints = None  # the int32 copy of a packed tile, allocated at the first, largest one
    for rows, cols, tile in _tiles(x, x, dtype, side, fields, bits):
        if fields == 1:
            out[rows, cols] = tile
        else:
            if ints is None:
                ints = np.empty(tile.shape, np.int32)
            packed = ints[: tile.shape[0], : tile.shape[1]]
            np.copyto(packed, tile, casting="unsafe")
            for i in range(fields):
                column = out[rows, cols.start + i : cols.stop : fields]
                np.bitwise_and(packed[:, : column.shape[1]], (1 << bits) - 1, out=column,
                               casting="unsafe")
                packed >>= bits
        out[cols, rows] = out[rows, cols].T
    return ExactMatrix(out, a.space)


def _entry_table(p: int, e: int, n: int) -> list[int]:
    """The closed-form entries of B over p^e by valuation: entry nu is
    (p^(nu+e(n-2)) - p^(min(nu,e-1)+(e-1)(n-2))) / phi(p^e), nu = 0..e,
    with phi(p^e) = p^(e-1) (p - 1) read off the given p and e, so p^e is
    never factorized.  Raises DomainError when a quotient is not an
    integer."""
    phi = p ** (e - 1) * (p - 1)
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
    return ExactMatrix(by_nu[nu], space)


def tensor_product(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product; row (i1, i2) of the result is flat index i1*rows2 + i2.

    Each entry is one product, computed straight into a result allocated
    in the dtype of the bound on the operands and the products."""
    a, b = m1.max_abs(), m2.max_abs()
    x, y = m1.array, m2.array
    out = np.empty((m1.rows, m2.rows, m1.cols, m2.cols), dtype=_storage_dtype(a, b, a * b))
    # in out's dtype, not the operands': int64 operands would otherwise
    # multiply in int64 before reaching an object result
    np.multiply(x[:, None, :, None], y[None, :, None, :], out=out, dtype=out.dtype)
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
    # rows, then columns: two gathers, about 5x faster than one np.ix_ index
    return ExactMatrix(m.array[f][:, f])


def block_identity(n: int, p: int, e: int, base_b: ExactMatrix) -> ExactMatrix:
    """The paper's block identity for B_{n,p^e}, p prime, e >= 2, as the whole
    matrix it predicts in the k-grouped order, from the lex-ordered
    B' = B_{n,p^(e-1)}:

        J_l (x) (p^(n-3) B' - p^((e-1)(n-2)-1) I) + p^(e(n-2)) I,

    J_l the all-ones l x l matrix, l = p^(n-1).  In the k-grouped order
    the class K_a is rows a*theta' .. (a+1)*theta' - 1, each class sorted
    by the lex position of its reduction, so block (a, b) of the result is
    C_ab = p^(n-3) B' - p^((e-1)(n-2)-1) I, plus p^(e(n-2)) I when a = b.
    Defined for n >= 3 only (the leading coefficient is fractional at
    n = 2).  The result is unlabelled."""
    if n < 3:
        raise UnsupportedError("the block identity needs n >= 3")
    if e < 2 or not is_prime(p):
        raise DomainError(f"the block identity needs a prime p and e >= 2, got {p}^{e}")
    if not base_b.is_square or base_b.rows != theta(n, p ** (e - 1)):
        raise DomainError(f"base matrix order does not match P_{{{n},{p ** (e - 1)}}}")
    ident = ExactMatrix.identity(base_b.rows)
    block = p ** (n - 3) * base_b - p ** ((e - 1) * (n - 2) - 1) * ident
    ones = ExactMatrix(np.ones((p ** (n - 1),) * 2, dtype=_storage_dtype(1)))
    whole = tensor_product(ones, block)
    return whole + p ** (e * (n - 2)) * ExactMatrix.identity(whole.rows)


# -------------------- export --------------------


def _byte_table(strings: list[str]) -> np.ndarray:
    """The UTF-8 encodings of ``strings`` as the rows of a (k, width) uint8
    array, each padded with NUL bytes to the longest."""
    table = np.array([s.encode() for s in strings], dtype=bytes)
    return table.view(np.uint8).reshape(len(strings), table.itemsize)


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
    wide-ranging int64).

    The text is assembled as bytes.  Every table (the tokens, the last
    tokens, the row prefixes and the row suffixes) holds the UTF-8 bytes
    of its strings padded with NUL bytes to the longest, one string a row,
    and a block is one uint8 buffer with a fixed-width slot per piece of a
    row: ``np.take`` writes the tokens of every entry but the last, a
    second ``take`` the last tokens, and slice assignments the prefixes
    and suffixes.  Deleting every NUL byte of the buffer then leaves
    exactly the text, because every rendered string is ``str`` of an
    integer, a point label (coordinate digits, commas and parentheses,
    quoted by csv) or fixed format text: none holds U+0000, and UTF-8
    encodes no other character with a 0x00 byte, so the only NUL bytes are
    the padding."""
    rows, cols = arr.shape
    lo = hi = 0
    if arr.dtype != object and arr.size:
        lo, hi = int(arr.min()), int(arr.max())
    if arr.dtype != object and hi - lo <= arr.size:
        values = range(lo, hi + 1)

        def index(block: np.ndarray) -> np.ndarray:
            return np.subtract(block, lo, dtype=np.intp)
    else:
        distinct = np.unique(arr)
        values = distinct.tolist()

        def index(block: np.ndarray) -> np.ndarray:
            return np.searchsorted(distinct, block)
    texts = [str(v) for v in values]
    tokens = _byte_table([token(s) for s in texts])
    last_tokens = tokens if last_token is None else _byte_table([last_token(s) for s in texts])

    def per_row(strings: str | list[str]) -> np.ndarray:
        table = _byte_table([strings] if isinstance(strings, str) else strings)
        return np.broadcast_to(table, (rows, table.shape[1]))

    heads, tails = per_row(first), per_row(last)
    # the byte columns of a row: its prefix, every token but the last,
    # the last token (none in a row without entries), its suffix
    inner, tw = max(cols - 1, 0), tokens.shape[1]
    head_end = heads.shape[1]
    last_start = head_end + inner * tw
    tail_start = last_start + (last_tokens.shape[1] if cols else 0)

    # a function, so that a block's buffers are freed before the next
    # block's are allocated: held across the yield, they fragment the heap
    # that the kept blocks of to_csv and to_matrix_market grow in (6 MiB
    # more RSS for the CSV of B_{3,67})
    def render(block: slice) -> str:
        idx = index(arr[block])
        buf = np.empty((idx.shape[0], tail_start + tails.shape[1]), dtype=np.uint8)
        buf[:, :head_end] = heads[block]
        # a view, since it only splits the contiguous last axis
        slots = buf[:, head_end:last_start].reshape(idx.shape[0], inner, tw)
        np.take(tokens, idx[:, :inner], axis=0, out=slots)
        if cols:
            np.take(last_tokens, idx[:, -1], axis=0, out=buf[:, last_start:tail_start])
        buf[:, tail_start:] = tails[block]
        return buf.tobytes().translate(None, b"\0").decode()

    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    for start in range(0, rows, step):
        yield render(slice(start, start + step))


def _labels(space: ProjectiveSpace | None, count: int) -> list[str]:
    """The point labels of ``space``, or the indices 0..count-1 when there
    is none."""
    if space is not None:
        return list(space.labels)
    return [str(i) for i in range(count)]


def _matrix_market(m: ExactMatrix) -> Iterator[str]:
    yield f"%%MatrixMarket matrix array integer general\n{m.rows} {m.cols}\n"
    yield from _render(m.array.T, lambda s: s + "\n")


def _csv(m: ExactMatrix) -> Iterator[str]:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + _labels(m.space, m.cols))
    # one single-field row per row label, so that csv quotes the labels
    # holding a comma; no label is empty or holds a newline
    writer.writerows([label] for label in _labels(m.space, m.rows))
    header, *row_labels, _ = buf.getvalue().split("\n")
    yield header + "\n"
    yield from _render(m.array, lambda s: "," + s, row_labels, "\n")


def _json(m: ExactMatrix) -> Iterator[str]:
    labels = None if m.space is None else list(m.space.labels)
    obj = {
        "rows": m.rows,
        "cols": m.cols,
        # one space labels the rows and the columns
        "row_labels": labels,
        "col_labels": labels,
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
    labels = _labels(m.space, m.rows)
    if m.space is not None:
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
    "block_identity",
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
