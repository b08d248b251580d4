"""Dense exact integer matrices and the constructions built on them.

The incidence matrix A (1 where two points have vanishing inner
product), its Gram matrix B = A*A^t built two independent ways (exact
product and the closed-form prime-power entry), Kronecker products, the
CRT relabeling that exhibits B_{n,m} as a tensor product over the
prime-power factors, and the fiber-aligned blocks of B over a
K-partition.  All arithmetic is exact; numpy is used only where values
provably fit machine integers (or exact float dot products of 0/1
data), with plain big-int fallbacks otherwise.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .counting import xi_data
from .errors import DomainError, UnsupportedError
from .modular import as_modulus, crt_combine, euler_phi
from .projective import (
    KPartition,
    ProjectivePoint,
    ProjectiveSpace,
    canonical_rep,
    enumerate_space,
    point_label,
)

_INT64_SAFE = 1 << 62


class ExactMatrix:
    """Dense matrix of arbitrary-precision integers with optional point labels."""

    __slots__ = ("rows", "cols", "_data", "row_labels", "col_labels")

    def __init__(
        self,
        data: list[list[int]],
        row_labels: tuple[ProjectivePoint, ...] | None = None,
        col_labels: tuple[ProjectivePoint, ...] | None = None,
    ):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for r in data:
            if len(r) != cols:
                raise DomainError("ragged rows are not a matrix")
        if row_labels is not None and len(row_labels) != rows:
            raise DomainError("row label count does not match the row count")
        if col_labels is not None and len(col_labels) != cols:
            raise DomainError("column label count does not match the column count")
        self.rows = rows
        self.cols = cols
        self._data = [list(map(int, r)) for r in data]
        self.row_labels = tuple(row_labels) if row_labels is not None else None
        self.col_labels = tuple(col_labels) if col_labels is not None else None

    # -------------------- constructors --------------------

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_numpy(
        cls,
        arr: np.ndarray,
        row_labels: tuple[ProjectivePoint, ...] | None = None,
        col_labels: tuple[ProjectivePoint, ...] | None = None,
    ) -> "ExactMatrix":
        return cls(arr.tolist(), row_labels, col_labels)

    # -------------------- access --------------------

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._data[i])

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def max_abs(self) -> int:
        return max((abs(x) for r in self._data for x in r), default=0)

    # -------------------- structure --------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        d = self._data
        return all(d[i][j] == d[j][i] for i in range(self.rows) for j in range(i))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -------------------- arithmetic --------------------

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [list(col) for col in zip(*self._data)] if self.rows else [],
            row_labels=self.col_labels,
            col_labels=self.row_labels,
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
            self.row_labels,
            self.col_labels,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._data, other._data)],
            self.row_labels,
            self.col_labels,
        )

    def __mul__(self, scalar: int) -> "ExactMatrix":
        if not isinstance(scalar, int):
            return NotImplemented
        return ExactMatrix(
            [[scalar * x for x in r] for r in self._data],
            self.row_labels,
            self.col_labels,
        )

    __rmul__ = __mul__

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DomainError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # int64 path is exact when no dot product can overflow
        bound = self.max_abs() * other.max_abs() * max(self.cols, 1)
        if bound < _INT64_SAFE:
            prod = np.array(self._data, dtype=np.int64) @ np.array(other._data, dtype=np.int64)
            return ExactMatrix.from_numpy(prod, self.row_labels, other.col_labels)
        bt = [list(col) for col in zip(*other._data)]
        data = [
            [sum(a * b for a, b in zip(row, col)) for col in bt] for row in self._data
        ]
        return ExactMatrix(data, self.row_labels, other.col_labels)

    def matvec(self, vec: list[int] | tuple[int, ...]) -> list[int]:
        """Exact matrix-vector product."""
        if len(vec) != self.cols:
            raise DomainError(f"vector length {len(vec)} does not match {self.cols} columns")
        vmax = max((abs(x) for x in vec), default=0)
        if self.max_abs() * vmax * max(self.cols, 1) < _INT64_SAFE:
            out = np.array(self._data, dtype=np.int64) @ np.array(vec, dtype=np.int64)
            return [int(x) for x in out]
        return [sum(a * b for a, b in zip(row, vec)) for row in self._data]

    def trace(self) -> int:
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        return sum(self._data[i][i] for i in range(self.rows))

    def trace_of_square(self) -> int:
        """trace(M @ M) without forming the product."""
        if not self.is_square:
            raise DomainError("trace needs a square matrix")
        d = self._data
        return sum(d[i][j] * d[j][i] for i in range(self.rows) for j in range(self.cols))

    def row_sums(self) -> list[int]:
        return [sum(r) for r in self._data]


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
    coords = np.array([pt.coords for pt in space.points], dtype=np.int64)
    gram = (coords @ coords.T) % m
    a = (gram == 0).astype(np.int64)
    return ExactMatrix.from_numpy(a, space.points, space.points)


def build_B_product(a: ExactMatrix) -> ExactMatrix:
    """Exact Gram matrix A @ A^t."""
    if not a.is_square:
        raise DomainError("the incidence matrix must be square")
    if a.max_abs() <= 1 and a.cols <= 1 << 24:
        # 0/1 data: float64 dot products are sums of at most `cols` ones,
        # far below 2^53, so the BLAS product is exact
        arr = np.array(a.to_lists(), dtype=np.float64)
        prod = np.rint(arr @ arr.T).astype(np.int64)
        return ExactMatrix.from_numpy(prod, a.row_labels, a.row_labels)
    result = a @ a.transpose()
    return ExactMatrix(result.to_lists(), a.row_labels, a.row_labels)


def entry_b_uv(u: ProjectivePoint, v: ProjectivePoint) -> int:
    """Closed-form entry of B over a prime power:
    (p^(nu+e(n-2)) - p^(min(nu,e-1)+(e-1)(n-2))) / phi(p^e) with nu = nu_p(xi)."""
    data = xi_data(u, v)
    p, e = data.p, data.e
    n = u.dimension
    nu = data.nu_xi
    num = p ** (nu + e * (n - 2)) - p ** (min(nu, e - 1) + (e - 1) * (n - 2))
    phi = euler_phi(p**e)
    q, r = divmod(num, phi)
    if r:
        raise DomainError(f"entry formula is not integral: {num} / {phi}")
    return q


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
    coords = np.array([pt.coords for pt in space.points], dtype=np.int64)

    # gcd of all 2x2 minors with p^e, then its valuation, vectorized over
    # all point pairs; minors are below m^2 so int64 is exact
    g = np.full((len(space), len(space)), q, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            minor = np.outer(coords[:, i], coords[:, j]) - np.outer(coords[:, j], coords[:, i])
            g = np.gcd(g, np.abs(minor))
    nu = np.zeros_like(g)
    t = g.copy()
    for _ in range(e):
        mask = (t % p == 0) & (t > 0)
        nu[mask] += 1
        t[mask] //= p

    phi = euler_phi(q)
    entry_by_nu = [
        (p ** (k + e * (n - 2)) - p ** (min(k, e - 1) + (e - 1) * (n - 2))) // phi
        for k in range(e + 1)
    ]
    data = [[entry_by_nu[k] for k in row] for row in nu.tolist()]
    return ExactMatrix(data, space.points, space.points)


def tensor_product(m1: ExactMatrix, m2: ExactMatrix) -> ExactMatrix:
    """Kronecker product; row (i1, i2) of the result is flat index i1*rows2 + i2."""
    if (
        m1.max_abs() * m2.max_abs() < _INT64_SAFE
        and m1.max_abs() < _INT64_SAFE
        and m2.max_abs() < _INT64_SAFE
    ):
        out = np.kron(np.array(m1.to_lists(), dtype=np.int64),
                      np.array(m2.to_lists(), dtype=np.int64))
        return ExactMatrix.from_numpy(out)
    data = [
        [m1[i1, j1] * m2[i2, j2] for j1 in range(m1.cols) for j2 in range(m2.cols)]
        for i1 in range(m1.rows)
        for i2 in range(m2.rows)
    ]
    return ExactMatrix(data)


def crt_permutation(
    n: int, m1: int, m2: int, guardrail: int | None = None
) -> Permutation:
    """Bijection from pair indices of P_{n,m1} x P_{n,m2} (pair-lex order,
    flat index i1*theta2 + i2) onto indices of the lex-ordered P_{n,m1*m2},
    sending (u, v) to the class of the coordinatewise CRT lift."""
    if math.gcd(m1, m2) != 1:
        raise DomainError(f"{m1} and {m2} are not coprime")
    s1 = enumerate_space(n, m1, "lex", guardrail=guardrail)
    s2 = enumerate_space(n, m2, "lex", guardrail=guardrail)
    big = enumerate_space(n, m1 * m2, "lex", guardrail=guardrail)
    forward = []
    for u in s1.points:
        for v in s2.points:
            w = canonical_rep(
                tuple(
                    crt_combine([(a, m1), (b, m2)])
                    for a, b in zip(u.coords, v.coords)
                ),
                m1 * m2,
            )
            forward.append(big.position(w))
    return Permutation(tuple(forward), len(big))


def apply_simultaneous_permutation(m: ExactMatrix, perm: Permutation) -> ExactMatrix:
    """Conjugate by the permutation matrix P with P[i, forward[i]] = 1,
    i.e. entry (i, j) of the result is entry (forward[i], forward[j]) of m."""
    if not m.is_square:
        raise DomainError("simultaneous permutation needs a square matrix")
    if m.rows != perm.size:
        raise DomainError(f"permutation size {perm.size} does not match order {m.rows}")
    f = perm.forward
    data = [[m[f[i], f[j]] for j in range(m.cols)] for i in range(m.rows)]
    labels = (
        tuple(m.row_labels[f[i]] for i in range(m.rows)) if m.row_labels else None
    )
    return ExactMatrix(data, labels, labels)


def block_C(a: int, b: int, partition: KPartition, big_b: ExactMatrix) -> ExactMatrix:
    """The K_a x K_b block of B, rows/columns aligned by base-point position
    so that pairs with equal reductions sit on the block diagonal."""
    if not 0 <= a < partition.l or not 0 <= b < partition.l:
        raise DomainError(f"class indices must lie in [0, {partition.l})")
    if big_b.rows != len(partition.space):
        raise DomainError("matrix order does not match the partitioned space")
    if big_b.row_labels is not None:
        pos = {label: i for i, label in enumerate(big_b.row_labels)}
    else:
        pos = partition.space.index
    row_idx = [pos[pt] for pt in partition.classes[a]]
    col_idx = [pos[pt] for pt in partition.classes[b]]
    data = [[big_b[i, j] for j in col_idx] for i in row_idx]
    return ExactMatrix(data, partition.classes[a], partition.classes[b])


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


def to_matrix_market(m: ExactMatrix) -> str:
    """Matrix Market dense array format (column-major), exact integers."""
    lines = ["%%MatrixMarket matrix array integer general", f"{m.rows} {m.cols}"]
    for j in range(m.cols):
        for i in range(m.rows):
            lines.append(str(m[i, j]))
    return "\n".join(lines) + "\n"


def to_csv(m: ExactMatrix) -> str:
    """CSV dump with point labels (or indices) as row/column headers."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if m.col_labels is not None:
        header = [""] + [point_label(pt) for pt in m.col_labels]
    else:
        header = [""] + [str(j) for j in range(m.cols)]
    writer.writerow(header)
    for i in range(m.rows):
        label = point_label(m.row_labels[i]) if m.row_labels else str(i)
        writer.writerow([label] + list(m.row(i)))
    return buf.getvalue()


def matrices_for(n: int, m: int, ordering: str = "lex", guardrail: int | None = None):
    """Convenience: (space, A, B) for one modulus."""
    space = enumerate_space(n, as_modulus(m), ordering, guardrail=guardrail)
    a = build_A(space)
    return space, a, build_B_product(a)


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
    "matrices_for",
    "tensor_product",
    "to_csv",
    "to_matrix_market",
]
