"""Closed-form spectra of the Gram matrices and their exact verification.

The prime-power table: lambda_1 = p^(2(e-1)(n-2)) * theta_{n-1,p}^2 with
multiplicity 1, lambda_2 = p^((2e-1)(n-2)) with multiplicity
theta_{n,p} - 1, and for s in {3, ..., e+1} (so only when e >= 2)
lambda_s = p^((2e+1-s)(n-2)) with multiplicity (p^(n-1)-1) *
theta_{n,p^(s-2)}.  For composite m every choice of one row per
prime-power factor contributes the product eigenvalue with the product
multiplicity.

The module constructs every eigenvector family the theory exhibits from
one description, an ``EigenFamily``: the eigenvalue tags together with
the label of every point's class mod p^k, for each prime power p^e of m
and each level k <= e, read from the coordinates of the space the
caller passes in through ``point_keys``.  ``matrix()`` builds V from the
labels alone.  Per prime power it starts from the all-ones vector and
lifts it level by level: the columns of level k - 1 are repeated on the
classes above each class, and the differences e_c - e_l of the classes
under one class below join them (at level 1, the prime-case difference
columns; at level e, the fiber differences).  Row x of V is the
Kronecker product of each factor's row at x's top label, which is the
CRT.  V is an int8 matrix whose column j is an eigenvector with
eigenvalue tags[j], its rows in the order of the space; no other space
is enumerated.  ``eigvec_differences`` builds the fiber differences a
second way, from the row slices of the k-grouped space alone (its
classes K_1, ..., K_l), as the tests' reference for the top level.

Verification first certifies the whole spectrum at once from that
eigenbasis: V has full rank over the rationals, proved from the labels
it is built from without any elimination, and B V == V D, with D the
diagonal of the tags, checked exactly by ``ExactMatrix.scales_columns``
in the square tiles B itself is built in, which says B V_lambda ==
lambda V_lambda on the columns V_lambda tagged lambda and fixes every
multiplicity (see ``eigenbasis_nullities``).  The certificate is
also acceptance criterion 8 of the verification battery.  When the
certificate declines, each multiplicity is checked by exact nullity, the
kernel dimension of B - lambda*I over the rationals.

Every rank and nullity that is computed goes through one function,
``exact_rank``: the rank modulo a word-size prime proves full rank, and
fraction-free (Bareiss) elimination decides the rest exactly.  Only a
singular matrix, such as B - lambda*I at an eigenvalue lambda, reaches
Bareiss, so ``exact_nullity`` and ``exact_rank`` of V stay independent
oracles for the certificate.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .matrices import ExactMatrix, is_permutation
from .modular import Modulus, as_modulus, is_prime
from .projective import ProjectiveSpace, enumerate_space, point_keys, theta


@dataclass(frozen=True)
class SpectrumRow:
    eigenvalue: int
    multiplicity: int
    provenance: str


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue/multiplicity rows with their table-row provenance.

    Rows are kept unmerged (distinct provenance, possibly equal
    eigenvalues); ``merged()`` is the view verification uses.  ``m`` may
    be given as a ``Modulus``, whose factorization then checks the total
    without factorizing m (which refuses m past 10^9); it is kept as its
    value.
    """

    n: int
    m: int
    rows: tuple[SpectrumRow, ...]

    def __post_init__(self) -> None:
        mod = as_modulus(self.m)
        object.__setattr__(self, "m", mod.value)
        total = sum(r.multiplicity for r in self.rows)
        expected = theta(self.n, mod)
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

    def power(k: int) -> Modulus:
        # p^k with the factorization the caller gave, never recomputed
        return Modulus(p**k, ((p, k),))

    rows = [
        SpectrumRow(
            p ** (2 * (e - 1) * (n - 2)) * theta(n - 1, power(1)) ** 2, 1, f"{p}^{e}[s=1]"
        ),
        SpectrumRow(
            p ** ((2 * e - 1) * (n - 2)), theta(n, power(1)) - 1, f"{p}^{e}[s=2]"
        ),
    ]
    for s in range(3, e + 2):
        rows.append(
            SpectrumRow(
                p ** ((2 * e + 1 - s) * (n - 2)),
                (p ** (n - 1) - 1) * theta(n, power(s - 2)),
                f"{p}^{e}[s={s}]",
            )
        )
    return SpectrumTable(n=n, m=power(e), rows=tuple(rows))


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
    return SpectrumTable(n=n, m=mod, rows=tuple(rows))


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

    Row-echelon elimination on int64 residues in [0, p).  An integer
    array is cast to int64 before the reduction, as its storage dtype may
    be too narrow to hold p; object arrays of Python ints are reduced with
    ``% p`` before the cast.  The columns are
    eliminated sparsest first (a stable sort by nonzero count), which
    leaves the rank unchanged and puts dense columns, such as the
    all-ones vector of a family, last, where they update few rows.  Each
    pivot updates only the rows with a nonzero entry in its column.
    ``a`` is not modified."""
    a = a[:, np.argsort(np.count_nonzero(a, axis=0), kind="stable")]
    if a.dtype != object:
        a = a.astype(np.int64, copy=False)
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

def eigenbasis_nullities(m: ExactMatrix, family: EigenFamily) -> dict[int, int] | None:
    """Every nullity of M - lambda*I at once, proved from a tagged eigenbasis.

    ``family`` is an ``EigenFamily`` of ``eigvec_family_general``: for each
    distinct tag lambda, V_lambda is the matrix of the columns of V tagged
    lambda.  Two exact checks:

    1. V is order x order of full rank over the rationals, proved from the
       labels V is built from, in O(theta log theta) array checks and with
       no elimination (below);
    2. M V == V D, with D the diagonal of the tags and V the matrix
       ``family.matrix()`` builds from the same labels, by one call of
       ``M.scales_columns(V, tags)``: M V is formed tile by tile in the
       float tier of its checked bound and each tile is compared with the
       tags times V's entries in an integer dtype that holds both sides,
       so the check is exact in every tier and keeps no float copy of M.
       Column by column this says M V_lambda == lambda V_lambda for every
       distinct tag.

    The rank follows from one rule on the labels.  For each factor i, let
    L_1, ..., L_e be its levels and L_0 = 0.  The family is accepted iff
    every level is an int64 array with one label per row, and

    - each L_k covers range(c_k), c_k = max(L_k) + 1: every label below
      c_k is some row's;
    - each L_k refines L_{k-1}: the rows of one class c of L_k share one
      label parent_k[c] of L_{k-1};
    - the joint top labels, the mixed-radix numbers (L_e of factor 1, L_e
      of factor 2, ...), are a permutation of range(prod_i c_e), and that
      product is the order.

    Then, one step at a time:

    - **Lift.** Factor i is built on its classes: V_0 = [1], and V_k is
      [V_{k-1}[parent_k] | D_k], with D_k one column e_c - e_l for each
      class c of L_k other than the last class l under its parent.  Every
      class of L_{k-1} is some row's, and that row's class in L_k lies
      under it, so parent_k is onto range(c_{k-1}), and w -> w[parent_k]
      maps R^c_{k-1} one to one onto F, the vectors constant on the
      fibers of parent_k: V_{k-1}[parent_k] has rank rank(V_{k-1}) and
      lies in F.  The columns of one fiber are independent and span its
      sum-zero vectors, so D_k spans Z, the vectors that sum to zero on
      each fiber, with rank c_k - c_{k-1}.  F and Z are orthogonal
      complements, so the ranks add: V_k is c_k x c_k of rank c_k, by
      induction from V_0.  (V_1 is [1 | e_i - e_last].)
    - **Fold.** Row x of V is the Kronecker product of factor i's row
      V_e[L_e(x)] over the factors, which is row j(x) of the Kronecker
      product of the V_e, with j(x) the joint top label of x.  That
      product is square of rank prod_i c_e, the order, and j is a
      permutation, so V is a row permutation of it.

    So V is invertible: by (1) its rank is the order of M, and (2) gives
    M = V D V^-1, hence M - lambda*I = V (D - lambda*I) V^-1 and the
    nullity of M - lambda*I is the number of tags equal to lambda, for
    every integer lambda.  Nothing is assumed about M or about where the
    labels came from; wrong labels can only make a check fail.  The checks
    are plain comparisons, so they hold under ``python -O``.

    Returns {lambda: number of tags equal to lambda}, or None when a step
    declines: the tag count is not M's order, the labels fail the rule,
    or a residual is nonzero.  A decline proves nothing either way.
    """
    if not m.is_square:
        raise DomainError("nullity needs a square matrix")
    order = m.rows
    if (len(family.tags) != order or not _proves_full_rank(family, order)
            or not m.scales_columns(family.matrix(), family.tags)):
        return None
    return dict(Counter(family.tags))


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


def verify_spectrum(m: ExactMatrix, table: SpectrumTable) -> VerificationReport:
    """Check every merged (eigenvalue, multiplicity) claim, plus the
    dimension identity (the computed multiplicities sum to the order), and
    the trace and trace-of-square identities of the claims.  Mismatches
    are report content, not exceptions.

    The claims are first decided together by ``eigenbasis_nullities`` on
    the family of ``eigvec_family_general``, which is an exact proof for
    any matrix and any family.  The family is built over ``M.space``, the
    space whose points index M's rows and columns, so B_{n,m} in any
    ordering is certified without enumerating P_{n,m} again.  Only when M
    has no space is the lex-ordered P_{n,m} enumerated for it, with the
    matrix order as the limit.  If the certificate declines (for instance when M
    is a relabelled B_{n,m} without a space) every claim is decided by
    ``exact_nullity`` instead.  Each row records its method."""
    if not m.is_square:
        raise DomainError("verification needs a square matrix")
    if m.rows != table.total_multiplicity:
        raise DomainError(
            f"matrix order {m.rows} does not match the table's total "
            f"multiplicity {table.total_multiplicity}"
        )
    merged = table.merged()
    space = m.space
    if space is None:
        space = enumerate_space(table.n, table.m, guardrail=m.rows)
    certified = eigenbasis_nullities(m, eigvec_family_general(space))
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
    dim_ok = sum(c.computed for c in entries) == m.rows
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


def eigvec_differences(space: ProjectiveSpace) -> ExactMatrix:
    """Fiber-difference vectors over the k-grouped P_{n,p^e}: +1 at u in
    K_a, -1 at the point of the last class K_l with the same reduction,
    for a < l; eigenvalue p^(e(n-2)).  The classes are the l = p^(n-1)
    row slices of theta' rows of the space, aligned by reduction, so the
    column of row i < (l-1) theta' has its -1 at row (l-1) theta' +
    i mod theta'.  Any other ordering raises DomainError."""
    if space.ordering != "k-grouped":
        raise DomainError(f"fiber differences need the k-grouped space, got {space.ordering!r}")
    p, _ = space.m.prime_power()
    last = len(space) - len(space) // p ** (space.n - 1)  # the first row of K_l
    cols = np.arange(last)
    data = np.zeros((len(space), last), dtype=np.int8)
    data[cols, cols] = 1
    data[last + cols % (len(space) - last), cols] = -1
    return ExactMatrix(data)


@dataclass(frozen=True, eq=False)
class EigenFamily:
    """The eigenvector family of B_{n,m}, kept as the point labels V is
    built from.

    Column j of V is an eigenvector with eigenvalue ``tags[j]``.
    ``levels[i][k-1]`` is the int64 label of every row's point mod p_i^k,
    p_i^e_i the i-th prime power of m: points with the same label are one
    point of P_{n,p_i^k}, and the labels are 0, 1, ... in the order of
    their ``point_keys``.  Factor i is built on these classes, bottom up:
    V_0 = [1], and level k is [V_{k-1}[parent_k] | D_k], with parent_k the
    class below each class of level k and D_k one column e_c - e_l for
    every class c other than the last class l under its parent.  The
    factors' top levels are folded by Kronecker products, and row x of V
    is the row of the Kronecker product at the joint top label of x.

    ``matrix()`` builds V from the labels only, and
    ``eigenbasis_nullities`` proves the rank of V from the same labels, so
    the certificate needs no elimination.  Only ``eigvec_family_general``
    builds a family."""

    tags: tuple[int, ...] = field(repr=False)
    levels: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)

    def matrix(self) -> ExactMatrix:
        """V as an int8 theta x theta matrix (its entries are 0 and +-1),
        its rows in the order of the space the family was built on."""
        v = None
        for labels in self.levels:
            w, below = np.ones((1, 1), dtype=np.int8), 0
            for level in labels:
                w, below = _lift(w, _parents(level, below)), level
            # each point's row of the factor, unless the points are in label
            # order already (a lex-ordered prime space), and row by row the
            # Kronecker product with the factors before it
            w = w if np.array_equal(below, np.arange(len(w))) else w[below]
            v = w if v is None else (v[:, :, None] * w[:, None, :]).reshape(len(w), -1)
        return ExactMatrix(v)


def _parents(level: np.ndarray, below) -> np.ndarray:
    """For each label c of ``level``, the label ``below`` gives a point of
    class c: for labels that nest, the one it gives every such point."""
    parent = np.zeros(int(level.max()) + 1, dtype=np.int64)
    parent[level] = below
    return parent


def _lift(v: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """[v[parent] | D] as one int8 array, with D one column e_c - e_l for
    each class c, in order, other than the last class l of its parent."""
    classes, below = np.arange(parent.size), len(v)
    last = np.full(below, -1)
    np.maximum.at(last, parent, classes)
    rest = np.flatnonzero(last[parent] != classes)
    out = np.zeros((parent.size, below + rest.size), dtype=np.int8)
    out[:, :below] = v[parent]
    cols = np.arange(below, out.shape[1])
    out[rest, cols] = 1
    out[last[parent[rest]], cols] = -1
    return out


def _proves_full_rank(family: EigenFamily, order: int) -> bool:
    """Whether the family's labels pass the rule of
    ``eigenbasis_nullities``, which proves that V is order x order of full
    rank."""
    tops = []
    for labels in family.levels:
        below = 0
        for level in labels:
            if not (level.shape == (order,) and level.dtype == np.int64
                    and level.min() >= 0 and level.max() < order
                    and np.bincount(level).all()
                    and (_parents(level, below)[level] == below).all()):
                return False
            below = level
        tops.append(below)
    counts = [int(np.max(top)) + 1 for top in tops]
    return math.prod(counts) == order and is_permutation(np.ravel_multi_index(tops, counts), order)


def eigvec_family_prime_power(
    n: int, p: int, e: int
) -> tuple[ProjectiveSpace, list[tuple[int, list[int]]]]:
    """The eigenvector family of B_{n,p^e} as a list: the lex-ordered
    space and theta (eigenvalue, vector) pairs, in the column order of
    ``eigvec_family_general`` over that space."""
    space = enumerate_space(n, p**e, "lex")
    family = eigvec_family_general(space)
    return space, list(zip(family.tags, family.matrix().array.T.tolist()))


def eigvec_family_general(space: ProjectiveSpace) -> EigenFamily:
    """The complete eigenvector family of B_{n,m} over the given space
    P_{n,m}: V is theta x theta, its rows in the space's order, and
    column j is an eigenvector with eigenvalue tags[j].

    For each prime power p^e of m and each level k <= e, the labels are
    the ``np.unique`` indices of the ``point_keys`` of the space's own
    coordinates mod p^k; no other space is enumerated.  A factor's
    all-ones column is tagged p^(2(e-1)(n-2)) theta_{n-1,p}^2 and its
    level-k difference columns p^((2e-k)(n-2)); a Kronecker fold takes
    the products of the factors' tags in the same order."""
    n, tags, levels = space.n, (1,), []
    for p, e in space.m.factors:
        factor_tags, labels = (theta(n - 1, p) ** 2 * p ** (2 * (e - 1) * (n - 2)),), []
        for k in range(1, e + 1):
            keys, level = np.unique(point_keys(space.coords, p**k), return_inverse=True)
            factor_tags += (p ** ((2 * e - k) * (n - 2)),) * (keys.size - len(factor_tags))
            labels.append(level)
        tags = tuple(lam1 * lam2 for lam1 in tags for lam2 in factor_tags)
        levels.append(tuple(labels))
    return EigenFamily(tags, tuple(levels))


__all__ = [
    "EigenFamily",
    "EigenvalueCheck",
    "SpectrumRow",
    "SpectrumTable",
    "VerificationReport",
    "eigenbasis_nullities",
    "eigvec_differences",
    "eigvec_family_general",
    "eigvec_family_prime_power",
    "exact_nullity",
    "exact_rank",
    "spectrum_general",
    "spectrum_prime_power",
    "verify_spectrum",
]
