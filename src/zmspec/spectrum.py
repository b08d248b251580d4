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
CRT-permuted Kronecker products.

Verification first certifies the whole spectrum at once from that
eigenbasis V: B V == V diag(lambda) exactly, and V has full rank modulo
a word-size prime, which proves V invertible over the rationals and so
fixes every multiplicity (see ``eigenbasis_nullities``).  When the
certificate declines, each multiplicity is checked by exact nullity:
the kernel dimension of B - lambda*I over the rationals, computed with
fraction-free (Bareiss) elimination using full pivoting on the
magnitude-smallest nonzero entry, which keeps every intermediate an
exact integer minor.

Exact rank uses the same modular elimination (``_rank_mod_p``): full rank
modulo 2^31 - 1 proves full rank over the rationals, and Bareiss is the
fallback only when the rank mod p falls short (see ``exact_rank``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .matrices import ExactMatrix, Permutation, _exact_dtype, crt_permutation
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
    if len(factor_tables) == 1:
        return factor_tables[0]
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


# residues modulo this prime stay below 2^31, so every product of two of
# them stays below 2^62 and int64 elimination is exact
_CERTIFICATE_PRIME = 2**31 - 1


def _rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of the integer matrix ``a`` modulo the prime p < 2^31.

    Row-echelon elimination on int64 residues in [0, p); object arrays of
    Python ints are reduced with ``% p`` before the cast.  Each pivot
    updates only the rows with a nonzero entry in its column.  ``a`` is
    not modified."""
    a = (a % p).astype(np.int64, copy=False)
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

    First the rank r modulo the prime 2^31 - 1.  An r x r minor that is
    nonzero mod p is a nonzero integer, so r <= rank over Q <= min(rows,
    cols); when r reaches min(rows, cols) it is the rank.  Otherwise the
    matrix is rank deficient or p divides every maximal minor, which
    the residues cannot tell apart, and Bareiss elimination decides.
    """
    full = min(m.rows, m.cols)
    if _rank_mod_p(m.array, _CERTIFICATE_PRIME) == full:
        return full
    return _bareiss_rank(m.to_lists())


def exact_nullity(m: ExactMatrix, lam: int) -> int:
    """Kernel dimension of (M - lam*I) over the rationals.

    For symmetric integer M this is the multiplicity of lam as an
    eigenvalue; 0 means lam is not an eigenvalue at all.
    """
    if not m.is_square:
        raise DomainError("nullity needs a square matrix")
    data = m.to_lists()
    for i in range(m.rows):
        data[i][i] -= lam
    return m.rows - _bareiss_rank(data)


# -------------------- eigenbasis certificate --------------------

def eigenbasis_nullities(
    m: ExactMatrix, family: list[tuple[int, list[int]]]
) -> dict[int, int] | None:
    """Every nullity of M - lambda*I at once, proved from a tagged eigenbasis.

    Stack the vectors of ``family`` as the columns of V and let D be the
    diagonal of their tags.  Two exact checks:

    1. M V == V D, computed in int64 after checking max|M| * max|V| *
       order < 2^62 and max|lambda| * max|V| < 2^62, so no entry of either
       side can overflow;
    2. V has full rank modulo the prime 2^31 - 1.

    A nonzero determinant mod p is a nonzero integer, so rank_p(V) <=
    rank_Q(V) and (2) makes V invertible over the rationals.  Then (1)
    gives M = V D V^-1, so M - lambda*I = V (D - lambda*I) V^-1 and the
    nullity of M - lambda*I is the number of tags equal to lambda, for
    every integer lambda.  Nothing is assumed about M or about where the
    vectors came from; a wrong family can only make a check fail.

    Returns {lambda: number of tags equal to lambda}, or None when a step
    declines: the family is not order vectors of length order, a bound is
    exceeded, the residual is nonzero or V is singular mod p.  A decline
    proves nothing either way.
    """
    if not m.is_square:
        raise DomainError("nullity needs a square matrix")
    order = m.rows
    if len(family) != order or any(len(vec) != order for _, vec in family):
        return None
    vmax = max(abs(x) for _, vec in family for x in vec)
    lmax = max(abs(lam) for lam, _ in family)
    if vmax == 0 or _exact_dtype(m.max_abs() * vmax * order, lmax * vmax) is object:
        return None
    v = np.array([vec for _, vec in family], dtype=np.int64).T
    tags = np.array([lam for lam, _ in family], dtype=np.int64)
    if not np.array_equal(m.array @ v, v * tags):
        return None
    if _rank_mod_p(v, _CERTIFICATE_PRIME) != order:
        return None
    counts: dict[int, int] = {}
    for lam, _ in family:
        counts[lam] = counts.get(lam, 0) + 1
    return counts


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
    dimension, trace and trace-of-square identities.  Mismatches are
    report content, not exceptions.

    The claims are first decided together by ``eigenbasis_nullities`` on
    the family of ``eigvec_family_general(table.n, table.m)``, which is an
    exact proof for any matrix passed in.  If it declines (for instance
    when M is not B_{n,m} in lex order) every claim is decided by
    ``exact_nullity`` instead.  Each row records its method."""
    if not m.is_square:
        raise DomainError("verification needs a square matrix")
    if m.rows != table.total_multiplicity:
        raise DomainError(
            f"matrix order {m.rows} does not match the table's total "
            f"multiplicity {table.total_multiplicity}"
        )
    merged = table.merged()
    family = eigvec_family_general(table.n, table.m, guardrail=m.rows)
    certified = eigenbasis_nullities(m, family)
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
    space = partition.space
    last = partition.classes[-1]
    pairs = [
        (space.position(u), space.position(v))
        for a in range(partition.l - 1)
        for u, v in zip(partition.classes[a], last)
    ]
    plus, minus = np.array(pairs).T
    cols = np.arange(len(pairs))
    data = np.zeros((len(space), len(pairs)), dtype=np.int64)
    data[plus, cols] = 1
    data[minus, cols] = -1
    return ExactMatrix(data)


def eigvec_lift(base_vec: list[int], partition: KPartition) -> list[int]:
    """Extend a vector over P_{n,p^(e-1)} to the fiber-constant vector over
    P_{n,p^e}: the value at x is the base value at the reduction of x.
    Maps an eigenvector with eigenvalue mu to one with p^(2n-4) * mu."""
    if len(base_vec) != len(partition.base_space):
        raise DomainError(
            f"base vector length {len(base_vec)} does not match the base space"
        )
    return [
        base_vec[partition.base_position[pt]] for pt in partition.space.points
    ]


def eigvec_tensor(vecs: list[list[int]], perm: Permutation) -> list[int]:
    """Kronecker product of per-factor eigenvectors, re-indexed by the CRT
    permutation into P_{n,m} order; eigenvalue is the product of the
    factors' eigenvalues."""
    if not vecs:
        raise DomainError("need at least one vector")
    kron = [1]
    for v in vecs:
        kron = [a * b for a in kron for b in v]
    if len(kron) != perm.size:
        raise DomainError(
            f"tensor length {len(kron)} does not match the permutation size {perm.size}"
        )
    out = [0] * perm.size
    for src, dst in enumerate(perm.forward):
        out[dst] = kron[src]
    return out


def eigvec_family_prime_power(
    n: int, p: int, e: int, guardrail: int | None = None
) -> tuple[ProjectiveSpace, list[tuple[int, list[int]]]]:
    """Assemble the complete eigenvector family of B_{n,p^e}.

    e = 1: all-ones plus the difference columns.  e >= 2: fiber-constant
    lifts of the level-(e-1) family plus the fiber-difference vectors.
    Returns the (lex-ordered) space and theta vectors tagged with their
    eigenvalues.
    """
    if e == 1:
        space = enumerate_space(n, p, "lex", guardrail=guardrail)
        family = [(theta(n - 1, p) ** 2, eigvec_all_ones(space))]
        family += [(p ** (n - 2), col) for col in eigvec_R_d(space).array.T.tolist()]
        return space, family
    partition = k_partition(p, e, n, guardrail=guardrail)
    _, base_family = eigvec_family_prime_power(n, p, e - 1, guardrail=guardrail)
    family = [
        (p ** (2 * n - 4) * lam, eigvec_lift(vec, partition))
        for lam, vec in base_family
    ]
    family += [
        (p ** (e * (n - 2)), col) for col in eigvec_differences(partition).array.T.tolist()
    ]
    return partition.space, family


def eigvec_family_general(
    n: int, m: int | Modulus, guardrail: int | None = None
) -> list[tuple[int, list[int]]]:
    """The complete eigenvector family of B_{n,m}: theta vectors over the
    lex-ordered P_{n,m}, each tagged with its eigenvalue.

    The prime-power families of the factors of m are folded together one
    factor at a time: Kronecker products re-indexed by
    ``crt_permutation(n, m_so_far, p^e)``, tagged with the product of the
    factors' eigenvalues.
    """
    mod = as_modulus(m)
    m_so_far = 1
    family: list[tuple[int, list[int]]] = []
    for p, e in mod.factors:
        _, factor_family = eigvec_family_prime_power(n, p, e, guardrail=guardrail)
        if m_so_far == 1:
            family = factor_family
        else:
            perm = crt_permutation(n, m_so_far, p**e, guardrail=guardrail)
            family = [
                (lam1 * lam2, eigvec_tensor([vec1, vec2], perm))
                for lam1, vec1 in family
                for lam2, vec2 in factor_family
            ]
        m_so_far *= p**e
    return family
