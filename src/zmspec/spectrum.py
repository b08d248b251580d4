"""Closed-form spectra of the Gram matrices and their exact verification.

The prime-power table: lambda_1 = p^(2(e-1)(n-2)) * theta_{n-1,p}^2 with
multiplicity 1, lambda_2 = p^((2e-1)(n-2)) with multiplicity
theta_{n,p} - 1, and for s in {3, ..., e+1} (so only when e >= 2)
lambda_s = p^((2e+1-s)(n-2)) with multiplicity (p^(n-1)-1) *
theta_{n,p^(s-2)}.  For composite m every choice of one row per
prime-power factor contributes the product eigenvalue with the product
multiplicity.

The module constructs every eigenvector family the theory exhibits: the
all-ones vector, the prime-case difference columns, the fiber-difference
vectors, fiber-constant lifts from the previous prime-power level, and
CRT-permuted Kronecker products.  A family is one pair (tags, V): V is
an int64 matrix whose column j is an eigenvector with eigenvalue
tags[j], and every level is built with array operations (a lift is one
row gather through the reduction map, a composite modulus one Kronecker
product with its rows scattered by the CRT permutation).  The family is
built over a space the caller passes in, with its rows in that space's
order; the K-partitions are taken top down from it, so each level's
space is the base of the level above, and each factor and partial-product
space is enumerated once.

Verification first certifies the whole spectrum at once from that
eigenbasis V: for each eigenvalue lambda, B V_lambda == lambda V_lambda
on the block V_lambda of V's columns tagged lambda, as exact
``ExactMatrix`` expressions, and V has full rank over the rationals,
which fixes every multiplicity (see ``eigenbasis_nullities``).  The
certificate is also acceptance criterion 8 of the verification battery.
When the certificate declines, each multiplicity is checked by exact
nullity, the kernel dimension of B - lambda*I over the rationals.

Every rank and nullity goes through one function, ``exact_rank``: the
rank modulo a word-size prime proves full rank, and fraction-free
(Bareiss) elimination decides the rest exactly.  Only a singular matrix,
such as B - lambda*I at an eigenvalue lambda, reaches Bareiss, so
``exact_nullity`` stays an independent oracle for the certificate.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matrices import ExactMatrix, crt_permutation, tensor_product
from .modular import Modulus, as_modulus, is_prime
from .projective import KPartition, ProjectiveSpace, enumerate_space, k_partition, theta


@dataclass(frozen=True)
class SpectrumRow:
    eigenvalue: int
    multiplicity: int
    provenance: str


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue/multiplicity rows with their table-row provenance.

    Rows are kept unmerged (distinct provenance, possibly equal
    eigenvalues); ``merged()`` is the view verification uses.
    """

    n: int
    m: int
    rows: tuple[SpectrumRow, ...]

    def __post_init__(self) -> None:
        total = sum(r.multiplicity for r in self.rows)
        expected = theta(self.n, self.m)
        if total != expected:
            raise DomainError(
                f"multiplicities sum to {total}, expected theta = {expected}"
            )

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.rows)

    def merged(self) -> tuple[tuple[int, int], ...]:
        """(eigenvalue, multiplicity) pairs, equal eigenvalues combined,
        sorted strictly decreasing."""
        acc: dict[int, int] = {}
        for r in self.rows:
            acc[r.eigenvalue] = acc.get(r.eigenvalue, 0) + r.multiplicity
        return tuple(sorted(acc.items(), key=lambda kv: -kv[0]))


def spectrum_prime_power(n: int, p: int, e: int) -> SpectrumTable:
    """The closed-form eigenvalue table of B_{n,p^e}."""
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if e < 1:
        raise DomainError(f"exponent must be >= 1, got {e}")
    rows = [
        SpectrumRow(
            p ** (2 * (e - 1) * (n - 2)) * theta(n - 1, p) ** 2, 1, f"{p}^{e}[s=1]"
        ),
        SpectrumRow(
            p ** ((2 * e - 1) * (n - 2)), theta(n, p) - 1, f"{p}^{e}[s=2]"
        ),
    ]
    for s in range(3, e + 2):
        rows.append(
            SpectrumRow(
                p ** ((2 * e + 1 - s) * (n - 2)),
                (p ** (n - 1) - 1) * theta(n, p ** (s - 2)),
                f"{p}^{e}[s={s}]",
            )
        )
    return SpectrumTable(n=n, m=p**e, rows=tuple(rows))


def spectrum_general(n: int, m: int | Modulus) -> SpectrumTable:
    """Spectrum of B_{n,m}: products of one row per prime-power factor."""
    mod = as_modulus(m)
    factor_tables = [spectrum_prime_power(n, p, e) for p, e in mod.factors]
    rows = []
    for combo in itertools.product(*(t.rows for t in factor_tables)):
        lam = 1
        mult = 1
        for r in combo:
            lam *= r.eigenvalue
            mult *= r.multiplicity
        rows.append(SpectrumRow(lam, mult, " x ".join(r.provenance for r in combo)))
    return SpectrumTable(n=n, m=mod.value, rows=tuple(rows))


# -------------------- exact rank / nullity --------------------


def _bareiss_rank(data: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free elimination.

    Full pivoting on the magnitude-smallest nonzero entry; the chosen
    pivot column is swapped to the end and dropped, rows that become all
    zero are dropped, so work shrinks as the elimination proceeds.
    Destroys ``data``.
    """
    rows = [r for r in data if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    prev = 1
    rank = 0
    while rows and ncols:
        best_abs = 0
        best_i = best_j = -1
        for i, r in enumerate(rows):
            for j in range(ncols):
                v = r[j]
                if v:
                    a = -v if v < 0 else v
                    if best_i < 0 or a < best_abs:
                        best_abs, best_i, best_j = a, i, j
                        if a == 1:
                            break
            if best_abs == 1:
                break
        if best_i < 0:
            break
        rows[0], rows[best_i] = rows[best_i], rows[0]
        prow = rows[0]
        last = ncols - 1
        if best_j != last:
            for r in rows:
                r[best_j], r[last] = r[last], r[best_j]
        piv = prow[last]
        ncols = last
        nxt = []
        for r in rows[1:]:
            f = r[last]
            if f:
                nr = [(piv * r[j] - f * prow[j]) // prev for j in range(ncols)]
            else:
                nr = [piv * r[j] // prev for j in range(ncols)]
            if any(nr):
                nxt.append(nr)
        rows = nxt
        prev = piv
        rank += 1
    return rank


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of the integer matrix ``a`` modulo the prime p < 2^31.

    Row-echelon elimination on int64 residues in [0, p); object arrays of
    Python ints are reduced with ``% p`` before the cast.  The columns are
    eliminated sparsest first (a stable sort by nonzero count), which
    leaves the rank unchanged and puts dense columns, such as the
    all-ones vector of a family, last, where they update few rows.  Each
    pivot updates only the rows with a nonzero entry in its column.
    ``a`` is not modified."""
    a = a[:, np.argsort(np.count_nonzero(a, axis=0), kind="stable")]
    a %= p
    a = a.astype(np.int64, copy=False)
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        if below.size:
            a[below, col:] = (
                a[below, col:] - np.outer(a[below, col], a[rank, col:])
            ) % p
        rank += 1
    return rank


def exact_rank(m: ExactMatrix) -> int:
    """Rank of an integer matrix over the rationals (exact).

    First the rank r modulo the prime p = 2^31 - 1, whose residues keep
    every product of two below 2^62, so the elimination is exact in
    int64.  An r x r minor that is nonzero mod p is a nonzero integer, so
    r <= rank over Q <= min(rows, cols); when r reaches min(rows, cols)
    it is the rank.  Otherwise the matrix is rank deficient or p divides
    every maximal minor, which the residues cannot tell apart, and
    Bareiss elimination decides.  This is the one place the package
    proves a rank or a nullity.
    """
    full = min(m.rows, m.cols)
    if _rank_mod_p(m.array, 2**31 - 1) == full:
        return full
    return _bareiss_rank(m.to_lists())


def exact_nullity(m: ExactMatrix, lam: int) -> int:
    """Kernel dimension of (M - lam*I) over the rationals.

    For symmetric integer M this is the multiplicity of lam as an
    eigenvalue; 0 means lam is not an eigenvalue at all.  It is
    ``m.rows - exact_rank(M - lam*I)``: for a lam that is not an
    eigenvalue the rank mod p proves nullity 0 unless p divides
    det(M - lam*I); for an eigenvalue Bareiss decides.
    """
    if not m.is_square:
        raise DomainError("nullity needs a square matrix")
    return m.rows - exact_rank(m - operator.index(lam) * ExactMatrix.identity(m.rows))


# -------------------- eigenbasis certificate --------------------

def eigenbasis_nullities(
    m: ExactMatrix, family: tuple[tuple[int, ...], ExactMatrix]
) -> dict[int, int] | None:
    """Every nullity of M - lambda*I at once, proved from a tagged eigenbasis.

    ``family`` is the pair (tags, V) of ``eigvec_family_general``: for each
    distinct tag lambda, V_lambda is the matrix of the columns of V tagged
    lambda.  Two exact checks:

    1. M V_lambda == lambda * V_lambda for every distinct tag, as
       ``ExactMatrix`` expressions: exact in every tier, since each runs
       in the dtype ``matrices`` picks from a checked bound.  M is
       converted for the product once, and kept, not once per block.
       Together these say M V == V D, with D the diagonal of the tags;
    2. V has full rank over the rationals (``exact_rank``).

    By (2) V is invertible, so (1) gives M = V D V^-1, hence
    M - lambda*I = V (D - lambda*I) V^-1 and the nullity of M - lambda*I
    is the number of tags equal to lambda, for every integer lambda.
    Nothing is assumed about M or about where the vectors came from; a
    wrong family can only make a check fail.

    Returns {lambda: number of tags equal to lambda}, or None when a step
    declines: V is not order x order with one tag per column, a residual
    is nonzero or V is singular.  A decline proves nothing either way.
    """
    if not m.is_square:
        raise DomainError("nullity needs a square matrix")
    tags, v = family
    order = m.rows
    if len(tags) != order or (v.rows, v.cols) != (order, order):
        return None
    # the rank first: its working copy of V is the certificate's largest
    # temporary, and M does not yet hold the copy it keeps for products
    if exact_rank(v) != order:
        return None
    columns: dict[int, list[int]] = {}
    for j, lam in enumerate(tags):
        columns.setdefault(lam, []).append(j)
    # at most a quarter of the columns per product, so that the temporaries
    # of one check (the columns, their copy for the product, the product
    # and lambda times the columns) stay below one order x order matrix
    width = max(1, order // 4)
    for lam, cols in columns.items():
        for start in range(0, len(cols), width):
            block = ExactMatrix(v.array[:, cols[start : start + width]])
            if m @ block != lam * block:
                return None
    return {lam: len(cols) for lam, cols in columns.items()}


# -------------------- verification --------------------


@dataclass(frozen=True)
class EigenvalueCheck:
    """One merged table row: claimed and computed multiplicity, and the
    method that computed it ("eigenbasis" or "bareiss")."""

    eigenvalue: int
    claimed: int
    computed: int
    method: str = "bareiss"

    @property
    def ok(self) -> bool:
        return self.claimed == self.computed


@dataclass(frozen=True)
class VerificationReport:
    """Per-eigenvalue nullity checks plus the three global identities."""

    n: int
    m: int
    theta: int
    entries: tuple[EigenvalueCheck, ...]
    dimension_ok: bool
    trace_ok: bool
    trace_sq_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.dimension_ok
            and self.trace_ok
            and self.trace_sq_ok
            and all(c.ok for c in self.entries)
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "theta": self.theta,
            "entries": [
                {
                    "lambda": str(c.eigenvalue),
                    "claimed": c.claimed,
                    "computed": c.computed,
                    "ok": c.ok,
                    "method": c.method,
                }
                for c in self.entries
            ],
            "trace_ok": self.trace_ok,
            "trace_sq_ok": self.trace_sq_ok,
            "dimension_ok": self.dimension_ok,
            "all_ok": self.all_ok,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _labelled_space(m: ExactMatrix, table: SpectrumTable) -> ProjectiveSpace:
    """P_{n,m} in the order of M's row labels, or the lex-ordered P_{n,m}
    when M has none or they are not exactly its points."""
    if m.row_labels is not None:
        try:
            return ProjectiveSpace.from_points(table.n, table.m, m.row_labels)
        except DomainError:
            pass
    return enumerate_space(table.n, table.m, guardrail=m.rows)


def verify_spectrum(m: ExactMatrix, table: SpectrumTable) -> VerificationReport:
    """Check every merged (eigenvalue, multiplicity) claim, plus the
    dimension, trace and trace-of-square identities.  Mismatches are
    report content, not exceptions.

    The claims are first decided together by ``eigenbasis_nullities`` on
    the family of ``eigvec_family_general``, which is an exact proof for
    any matrix passed in.  The family is built over the space in the
    order of M's row labels, so B_{n,m} in any ordering is certified
    without enumerating P_{n,m} again.  Only when M has no labels, or its
    labels are not exactly the points of P_{n,m}, is the lex-ordered
    P_{n,m} enumerated for it, with the matrix order as the limit.  If
    the certificate declines (for instance when M is a relabelled B_{n,m}
    without labels) every claim is decided by ``exact_nullity`` instead.
    Each row records its method."""
    if not m.is_square:
        raise DomainError("verification needs a square matrix")
    if m.rows != table.total_multiplicity:
        raise DomainError(
            f"matrix order {m.rows} does not match the table's total "
            f"multiplicity {table.total_multiplicity}"
        )
    merged = table.merged()
    certified = eigenbasis_nullities(m, eigvec_family_general(_labelled_space(m, table)))
    if certified is not None:
        entries = tuple(
            EigenvalueCheck(lam, d, certified.get(lam, 0), "eigenbasis")
            for lam, d in merged
        )
    else:
        entries = tuple(
            EigenvalueCheck(lam, d, exact_nullity(m, lam), "bareiss")
            for lam, d in merged
        )
    dim_ok = sum(d for _, d in merged) == m.rows
    trace_ok = sum(lam * d for lam, d in merged) == m.trace()
    trace_sq_ok = sum(lam * lam * d for lam, d in merged) == m.trace_of_square()
    return VerificationReport(
        n=table.n,
        m=table.m,
        theta=table.total_multiplicity,
        entries=entries,
        dimension_ok=dim_ok,
        trace_ok=trace_ok,
        trace_sq_ok=trace_sq_ok,
    )


# -------------------- eigenvector families --------------------


def eigvec_all_ones(space: ProjectiveSpace) -> list[int]:
    """The all-ones vector; eigenvector for the top eigenvalue (= row sum)."""
    return [1] * len(space)


def eigvec_R_d(space: ProjectiveSpace) -> ExactMatrix:
    """Prime case: the theta - 1 columns (e_i - e_last); each has
    eigenvalue p^(n-2).  Columns are independent (identity top block)."""
    if not (space.m.is_prime_power and space.m.prime_power()[1] == 1):
        raise DomainError(f"the difference columns need a prime modulus, got {space.m.value}")
    d = len(space) - 1
    bottom = np.full((1, d), -1, dtype=np.int64)
    return ExactMatrix(np.vstack([np.eye(d, dtype=np.int64), bottom]))


def eigvec_differences(partition: KPartition) -> ExactMatrix:
    """Fiber-difference vectors: +1 at u in K_a, -1 at the K_l point with
    the same reduction, for a < l; eigenvalue p^(e(n-2)).  Coordinates
    follow the partition's (lex-ordered) space."""
    positions = partition.positions
    plus = positions[:-1].ravel()
    minus = np.tile(positions[-1], partition.l - 1)
    cols = np.arange(plus.size)
    data = np.zeros((len(partition.space), plus.size), dtype=np.int64)
    data[plus, cols] = 1
    data[minus, cols] = -1
    return ExactMatrix(data)


def _family_prime_power(space: ProjectiveSpace) -> tuple[tuple[int, ...], ExactMatrix]:
    """The eigenvalue tags and the family V of B_{n,p^e} over the given
    space P_{n,p^e}, in that space's order.

    The K-partitions are taken top down, each partition's base space
    being the next level, down to P_{n,p}; the family is then built
    bottom up.  Level 1 is all-ones beside the difference columns.  Level
    k >= 2 is the fiber-constant lift of level k-1 (one gather through the
    reduction map; the tags scale by p^(2n-4)) beside the fiber
    differences."""
    partitions: list[KPartition] = []
    while space.m.prime_power()[1] > 1:
        partitions.append(k_partition(space))
        space = partitions[-1].base_space
    n, p = space.n, space.m.value
    tags = (theta(n - 1, p) ** 2,) + (p ** (n - 2),) * (len(space) - 1)
    v = np.hstack([np.ones((len(space), 1), dtype=np.int64), eigvec_R_d(space).array])
    for partition in reversed(partitions):
        diffs = eigvec_differences(partition).array
        tags = tuple(p ** (2 * n - 4) * lam for lam in tags)
        tags += (p ** (partition.e * (n - 2)),) * diffs.shape[1]
        v = np.hstack([v[partition.base_position], diffs])
    return tags, ExactMatrix(v)


def eigvec_family_prime_power(
    n: int, p: int, e: int
) -> tuple[ProjectiveSpace, list[tuple[int, list[int]]]]:
    """The eigenvector family of B_{n,p^e} as a list: the lex-ordered
    space and theta (eigenvalue, vector) pairs, in the column order of
    ``eigvec_family_general`` over that space."""
    space = enumerate_space(n, p**e, "lex")
    tags, v = _family_prime_power(space)
    return space, list(zip(tags, v.array.T.tolist()))


def eigvec_family_general(space: ProjectiveSpace) -> tuple[tuple[int, ...], ExactMatrix]:
    """The complete eigenvector family of B_{n,m} over the given space
    P_{n,m} as the pair (tags, V): V is theta x theta, its rows in the
    space's order, and column j is an eigenvector with eigenvalue tags[j].

    The prime-power families of the factors of m are folded together one
    factor at a time: the Kronecker product of the two V, its rows
    re-indexed by the CRT permutation onto the space of the product of the
    factors so far, tagged with the products of the factors' eigenvalues
    in the same order.  Each proper factor space and each partial-product
    space is enumerated once, in lex order, with the size of ``space`` as
    the limit; ``space`` itself is not enumerated again."""
    def space_of(m: int) -> ProjectiveSpace:
        return space if m == space.m.value else enumerate_space(space.n, m, guardrail=len(space))

    so_far, *factors = [space_of(p**e) for p, e in space.m.factors]
    tags, v = _family_prime_power(so_far)
    for factor in factors:
        factor_tags, factor_v = _family_prime_power(factor)
        target = space_of(so_far.m.value * factor.m.value)
        kron = tensor_product(v, factor_v).array
        rows = np.empty_like(kron)
        rows[np.asarray(crt_permutation(so_far, factor, target).forward)] = kron
        tags = tuple(lam1 * lam2 for lam1 in tags for lam2 in factor_tags)
        so_far, v = target, ExactMatrix(rows)
    return tags, v


__all__ = [
    "EigenvalueCheck",
    "SpectrumRow",
    "SpectrumTable",
    "VerificationReport",
    "eigenbasis_nullities",
    "eigvec_R_d",
    "eigvec_all_ones",
    "eigvec_differences",
    "eigvec_family_general",
    "eigvec_family_prime_power",
    "exact_nullity",
    "exact_rank",
    "spectrum_general",
    "spectrum_prime_power",
    "verify_spectrum",
]
