"""Projective point sets over Z_m.

P_{n,m} is the set of primitive n-tuples mod m (gcd of all entries and m
equal to 1) taken modulo scaling by units.  This module enumerates the
point set, fixes canonical orbit representatives, computes the point
count, and implements the reduction map between prime-power levels
together with its fibers.  The partition of P_{n,p^e} into fiber
transversals K_1, ..., K_{p^(n-1)} is the k-grouped space: its classes
are consecutive slices of its rows.

A space is its coordinate array: row i of ``ProjectiveSpace.coords`` is
the canonical representative of point i.  The enumeration builds, as one
array in lex order, the primitive tuples whose first nonzero entry
divides m, and keeps the first of each point key, which is the orbit
minimum; the k-grouped space is the lex array with its rows reordered
by ``_k_grouped_order``.
``ProjectivePoint`` objects are built only when ``points`` is first
read, and each checks its row by the unit walk ``_is_orbit_minimum``.
Which point a coordinate tuple represents is decided in one place,
``point_keys``: one int64 key per tuple, equal for two tuples iff they
represent the same point.  ``ProjectiveSpace.positions`` maps any array
of tuples to points by looking their keys up among the space's own keys,
sorted once per space.  The reduction map behind the k-grouped order and
the CRT map behind the tensor lemma are such lookups, and the closed-form B
compares the keys of its points at each level p^k.  ``canonical_rep``,
``delta_map`` and ``fiber`` compute the same answers one point at a time
and are kept as independent oracles.

Each space is scanned once per command: whatever needs a space takes the
space itself, and a labelled matrix carries the space of its rows and
columns.  The k-grouped P_{n,p^e} enumerates its base P_{n,p^(e-1)}
with its own size as the limit, so a user's limit enters only through
the space asked for.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, GuardrailError
from .modular import Modulus, as_modulus, units

DEFAULT_GUARDRAIL = 5000
GUARDRAIL_ENV = "ZMSPEC_GUARDRAIL"

ORDERINGS = ("lex", "k-grouped")


def effective_guardrail(guardrail: int | None = None) -> int:
    """Explicit value, else the ZMSPEC_GUARDRAIL env var, else 5000."""
    if guardrail is not None:
        if guardrail <= 0:
            raise DomainError(f"guardrail must be positive, got {guardrail}")
        return guardrail
    env = os.environ.get(GUARDRAIL_ENV)
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise DomainError(f"{GUARDRAIL_ENV}={env!r} is not an integer") from exc
        if value <= 0:
            raise DomainError(f"{GUARDRAIL_ENV} must be positive, got {value}")
        return value
    return DEFAULT_GUARDRAIL


def theta(n: int, m: int | Modulus) -> int:
    """Number of points of P_{n,m}.

    Exact integer evaluation of m^(n-1) * prod_p (1 + 1/p + ... + 1/p^(n-1))
    over the primes dividing m, rearranged so every intermediate is an
    integer: prod_p p^((e_p - 1)(n - 1)) * (p^n - 1) // (p - 1).
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    mod = as_modulus(m)
    total = 1
    for p, e in mod.factors:
        total *= p ** ((e - 1) * (n - 1)) * ((p**n - 1) // (p - 1))
    return total


def is_primitive(coords: tuple[int, ...], m: int) -> bool:
    """True iff gcd(coords..., m) == 1."""
    return math.gcd(m, *coords) == 1


@dataclass(frozen=True)
class ProjectivePoint:
    """Canonical representative of a point of P_{n,m}.

    The representative is the lexicographically smallest tuple in the
    orbit {lambda * u mod m : lambda a unit}, entries in [0, m).

    Canonicity is proved by ``_is_orbit_minimum``.
    """

    coords: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        m = self.modulus
        if m < 2:
            raise DomainError(f"modulus must be >= 2, got {m}")
        if len(self.coords) < 2:
            raise DomainError("points need at least 2 coordinates")
        if any(not (0 <= c < m) for c in self.coords):
            raise DomainError(f"coordinates {self.coords} not reduced mod {m}")
        if not is_primitive(self.coords, m):
            raise DomainError(f"{self.coords} is not primitive mod {m}")
        if not _is_orbit_minimum(self.coords, m):
            raise DomainError(f"{self.coords} is not the canonical representative mod {m}")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return point_label(self)


def _is_orbit_minimum(coords: tuple[int, ...], m: int) -> bool:
    """True iff no unit multiple of the primitive reduced tuple ``coords``
    is lex smaller.

    Only the units that could lower the tuple are walked.  Let d be its
    first nonzero entry.  The units send d to exactly the residues x with
    gcd(x, m) = gcd(d, m), the least of which is gcd(d, m), so an orbit
    minimum has d | m.  A unit lambda with lambda != 1 (mod m/d) moves d
    to a larger such residue and so makes the tuple larger; only the at
    most d units with lambda = 1 (mod m/d) remain to check, and none
    besides 1 when d = 1, which covers every point over a prime modulus.
    """
    d = next(c for c in coords if c)
    step = m // d
    return m % d == 0 and not any(
        math.gcd(lam, m) == 1 and tuple(lam * c % m for c in coords) < coords
        for lam in range(1 + step, m, step)
    )


def point_label(pt: ProjectivePoint) -> str:
    """Digit string for m <= 10 (e.g. '021'), comma-joined otherwise."""
    return _coords_label(pt.coords, pt.modulus)


def _coords_label(coords, m: int) -> str:
    """``point_label`` of the point of P_{n,m} whose representative is
    ``coords``, without building the point."""
    return ("" if m <= 10 else ",").join(map(str, coords))


def canonical_rep(coords: tuple[int, ...] | list[int], m: int) -> ProjectivePoint:
    """Canonical representative of the orbit of ``coords`` under units."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    reduced = tuple(c % m for c in coords)
    if not is_primitive(reduced, m):
        raise DomainError(f"{tuple(coords)} is not primitive mod {m}")
    best = min(tuple(lam * c % m for c in reduced) for lam in units(m))
    return ProjectivePoint(best, m)


def point_keys(rows, m: int | Modulus) -> np.ndarray:
    """One int64 key per row of a 2-d integer array of n-tuples over Z_m:
    two rows get the same key iff they represent the same point of
    P_{n,m}.

    For each prime power q = p^e of m, a row is reduced mod q and scaled
    by the inverse of its first entry prime to p.  A unit multiple keeps
    every entry prime to p or divisible by p, so this picks the one member
    of the row's class mod q that has a 1 there.  The scaled rows, read as
    base-q digits, one prime power after another, form one mixed-radix key
    below m^n.  By the CRT, v = lambda * u (mod m) for a unit lambda iff
    that holds mod every q, so the keys of u and v are equal iff u and v
    are one point.  A row that is not primitive has no entry prime to some
    p and raises DomainError.  So does m^max(n, 2) >= 2^62: below that
    bound every key and every product of two entries mod q fits int64."""
    rows = np.asarray(rows)
    n = rows.shape[-1]
    if int(m) ** max(n, 2) >= 1 << 62:
        raise DomainError(f"point keys need m^n < 2^62, got m = {int(m)}, n = {n}")
    mod = as_modulus(m)
    keys = np.zeros(len(rows), dtype=np.int64)
    for p, e in mod.factors:
        q = p**e
        reduced = (rows % q).astype(np.int64, copy=False)
        prime = reduced % p != 0
        if not prime.any(axis=1).all():
            bad = rows[np.argmin(prime.any(axis=1))] % mod.value
            raise DomainError(f"{tuple(bad.tolist())} is not primitive mod {mod.value}")
        # the first entry prime to p, and its inverse unit^(phi(q) - 1) (Euler)
        unit = np.take_along_axis(reduced, prime.argmax(axis=1)[:, None], axis=1)
        inverse = 1
        for bit in bin(q - q // p - 1)[2:]:
            inverse = inverse * inverse % q * (unit if bit == "1" else 1) % q
        keys = keys * q**n + (reduced * inverse % q) @ q ** np.arange(n - 1, -1, -1)
    return keys


@dataclass(frozen=True, eq=False)
class ProjectiveSpace:
    """The ordered points of P_{n,m} as one coordinate array.

    ``coords`` is the read-only theta x n int64 array whose row i is the
    canonical representative of point i, and ``ordering`` is "lex" or
    "k-grouped".  ``points``, the same rows as ProjectivePoints,
    and ``labels``, their labels, are built on first read, and so are the
    sorted keys through which ``positions`` answers which point a tuple
    represents.
    """

    n: int
    m: Modulus
    ordering: str
    coords: np.ndarray = field(repr=False)

    @cached_property
    def points(self) -> tuple[ProjectivePoint, ...]:
        m = self.m.value
        return tuple(ProjectivePoint(tuple(row), m) for row in self.coords.tolist())

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``point_label`` of every point, formatted from the coordinate
        array."""
        m = self.m.value
        return tuple(_coords_label(row, m) for row in self.coords.tolist())

    @cached_property
    def _sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``point_keys`` of the points in ascending order, and the
        position of the point holding each (the keys are distinct)."""
        return np.unique(point_keys(self.coords, self.m), return_index=True)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: ProjectivePoint) -> bool:
        # a ProjectivePoint is canonical and primitive by construction
        return pt.modulus == self.m.value and pt.dimension == self.n

    def position(self, pt: ProjectivePoint) -> int:
        if pt not in self:
            raise DomainError(f"{pt.coords} is not a point of P_{{{self.n},{self.m.value}}}")
        return int(self.positions([pt.coords])[0])

    def positions(self, rows) -> np.ndarray:
        """Positions of the points that the rows of an integer array
        represent, as an int64 array.

        A row may be any representative of its point: it is looked up by
        its ``point_keys`` among the sorted keys of the space's points, and
        Python ints are reduced mod m before the int64 cast.
        Integer and bool entries are accepted; a float, a string or any
        other entry, a row that is not primitive, and a row whose point the
        space does not hold raise DomainError."""
        m = self.m.value
        try:
            arr = np.asarray(rows)
            if arr.dtype.kind not in "biu":
                # big Python ints, or something that is not an integer at all
                obj = np.array(rows, dtype=object)
                flat = [operator.index(c) % m for c in obj.flat]
                arr = np.array(flat, dtype=np.int64).reshape(obj.shape)
        except (TypeError, ValueError) as exc:
            raise DomainError("coordinates must be integers") from exc
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise DomainError(f"rows of {self.n} coordinates expected, got shape {arr.shape}")
        keys = point_keys(arr, self.m)
        known, order = self._sorted_keys
        at = np.searchsorted(known, keys).clip(max=len(known) - 1)
        if (known[at] != keys).any():
            bad = tuple((arr[np.argmax(known[at] != keys)] % m).tolist())
            raise DomainError(f"{bad} is not a point of P_{{{self.n},{m}}}")
        return order[at]


def _lex_points(n: int, m: int) -> np.ndarray:
    """The canonical representatives of P_{n,m} in lexicographic order,
    as a theta x n int64 array.

    The candidates are the tuples (0, ..., 0, d, *rest) with d a divisor
    of m below m.  With w = len(rest), their lex indices (the tuples read
    as base-m numbers) are d * m^w + r for r < m^w, so concatenated with
    w ascending, then d ascending, they come out in lex order.  They are
    expanded to base-m digits, the rows that are not primitive are
    dropped, and of each ``point_keys`` value the first row is kept.
    Every orbit minimum is a candidate, because its first nonzero entry
    divides m (see ``_is_orbit_minimum``), and the candidates that share
    its key are its unit multiples, all lex larger, so the first
    candidate with a given key is the canonical representative.  There
    are sum_w m^w <= theta candidates per divisor, so at most theta times
    the number of divisors of m below m rows.
    """
    divisors = np.array([d for d in range(1, m) if m % d == 0], dtype=np.int64)
    index = np.concatenate(
        [(divisors[:, None] * m**w + np.arange(m**w)).ravel() for w in range(n)]
    )
    digits = index[:, None] // m ** np.arange(n - 1, -1, -1) % m
    rows = digits[np.gcd.reduce(digits, axis=1, initial=m) == 1]
    _, first = np.unique(point_keys(rows, m), return_index=True)
    return rows[np.sort(first)]


def enumerate_space(
    n: int,
    m: int | Modulus,
    ordering: str = "lex",
    guardrail: int | None = None,
) -> ProjectiveSpace:
    """Enumerate P_{n,m} with a deterministic point order.

    ``lex`` orders points by their canonical coordinate tuples.
    ``k-grouped`` (prime powers p^e with e >= 2 only) concatenates the
    classes K_1..K_l of the K-partition, l = p^(n-1), each of
    theta' = theta_{n,p^(e-1)} points sorted by the position of their
    reduction in the lex-ordered base space P_{n,p^(e-1)}: rows
    h*theta' .. (h+1)*theta' - 1 are K_{h+1}, and rows i and j lie over
    one base point iff i = j mod theta'.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if ordering not in ORDERINGS:
        raise DomainError(f"unknown ordering {ordering!r}; choose from {ORDERINGS}")
    mod = as_modulus(m)
    limit = effective_guardrail(guardrail)
    count = theta(n, mod)
    if count > limit:
        raise GuardrailError(
            f"theta({n},{mod.value}) = {count} exceeds the guardrail {limit}"
        )
    if ordering == "k-grouped" and mod.prime_power()[1] < 2:  # raises for composite m
        raise DomainError("k-grouped ordering needs a prime power p^e with e >= 2")

    coords = _lex_points(n, mod.value)
    if len(coords) != count:
        raise DomainError(
            f"enumerated {len(coords)} points of P_{{{n},{mod.value}}}, theta is {count}"
        )
    coords.flags.writeable = False
    space = ProjectiveSpace(n, mod, "lex", coords)
    if ordering == "lex":
        return space
    grouped = coords[_k_grouped_order(space)]
    grouped.flags.writeable = False
    return ProjectiveSpace(n, mod, ordering, grouped)


def _k_grouped_order(space: ProjectiveSpace) -> np.ndarray:
    """The lex positions of the points of P_{n,p^e} in k-grouped order:
    K_1, ..., K_l, l = p^(n-1), where K_h holds the h-th member (in lex
    order) of the fiber over every base point of P_{n,p^(e-1)}, in the
    lex order of the base points.  Each class meets every fiber once.

    Only the base space is enumerated, in lex order, with the space's
    size as its limit.  The reduction map is one lookup: the base space's
    ``positions`` of the coordinates of every point.  A stable sort keeps
    each fiber in the space's lex order."""
    p, e = space.m.prime_power()
    base = enumerate_space(space.n, p ** (e - 1), "lex", guardrail=len(space))
    reduction = base.positions(space.coords)
    size = p ** (space.n - 1)
    sizes = np.bincount(reduction, minlength=len(base))
    if (sizes != size).any():
        pos = int(np.argmax(sizes != size))
        raise DomainError(
            f"fiber over base point {pos} has size {sizes[pos]}, expected {size}"
        )
    # column u of the reshape is the fiber over base point u, so row h is K_h
    return np.argsort(reduction, kind="stable").reshape(len(base), size).T.ravel()


def neighborhood(u: ProjectivePoint, space: ProjectiveSpace) -> list[ProjectivePoint]:
    """All v in the space with <u, v> = 0 mod m, in space order."""
    if u not in space:
        raise DomainError(f"{u.coords} is not a point of the given space")
    m = space.m.value
    out = []
    for v in space.points:
        if sum(a * b for a, b in zip(u.coords, v.coords)) % m == 0:
            out.append(v)
    return out


def delta_map(u: ProjectivePoint, p: int, e: int) -> ProjectivePoint:
    """Reduce a point of P_{n,p^e} coordinatewise to P_{n,p^(e-1)}."""
    if e < 2:
        raise DomainError(f"reduction needs e >= 2, got e = {e}")
    if u.modulus != p**e:
        raise DomainError(f"point modulus {u.modulus} is not {p}^{e}")
    base = p ** (e - 1)
    return canonical_rep(tuple(c % base for c in u.coords), base)


def fiber(v: ProjectivePoint, p: int, e: int, n: int) -> list[ProjectivePoint]:
    """All points of P_{n,p^e} reducing to v, sorted lexicographically.

    Every fiber member is equivalent to a lift v + p^(e-1)*gamma with
    gamma in Z_p^n, so canonicalizing the p^n lifts and deduplicating
    yields exactly the fiber (size p^(n-1)).
    """
    if e < 2:
        raise DomainError(f"fibers need e >= 2, got e = {e}")
    base = p ** (e - 1)
    if v.modulus != base:
        raise DomainError(f"point modulus {v.modulus} is not {p}^{e - 1}")
    if v.dimension != n:
        raise DomainError(f"point dimension {v.dimension} does not match n = {n}")
    m = p**e
    members = {
        canonical_rep(tuple(c + base * g for c, g in zip(v.coords, gamma)), m)
        for gamma in itertools.product(range(p), repeat=n)
    }
    out = sorted(members, key=lambda pt: pt.coords)
    if len(out) != p ** (n - 1):
        raise DomainError(
            f"fiber size {len(out)} violates the p^(n-1) = {p ** (n - 1)} count"
        )
    return out


def rho_fiber_size(v: ProjectivePoint, p: int, e: int, n: int) -> int:
    """Count primitive tuples of Z_{p^e}^n whose reduction falls in the class of v.

    Counted by full enumeration; equals p^n * phi(p^(e-1)).
    """
    if e < 2:
        raise DomainError(f"fibers need e >= 2, got e = {e}")
    base = p ** (e - 1)
    if v.modulus != base:
        raise DomainError(f"point modulus {v.modulus} is not {p}^{e - 1}")
    m = p**e
    if m**n > 1 << 22:
        raise GuardrailError(f"scan of {m}^{n} tuples exceeds the oracle scale")
    count = 0
    for w in itertools.product(range(m), repeat=n):
        if not is_primitive(w, m):
            continue
        if canonical_rep(tuple(c % base for c in w), base) == v:
            count += 1
    return count


def points_to_csv(space: ProjectiveSpace) -> str:
    """Point list as CSV: index column plus one column per coordinate."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index"] + [f"c{i + 1}" for i in range(space.n)])
    for i, row in enumerate(space.coords.tolist()):
        writer.writerow([i] + row)
    return buf.getvalue()


def orbit_size(pt: ProjectivePoint) -> int:
    """Size of {lambda * u : lambda a unit}; always phi(m) for primitive u."""
    m = pt.modulus
    return len({tuple(lam * c % m for c in pt.coords) for lam in units(m)})


__all__ = [
    "ProjectivePoint",
    "ProjectiveSpace",
    "canonical_rep",
    "delta_map",
    "enumerate_space",
    "fiber",
    "is_primitive",
    "neighborhood",
    "orbit_size",
    "point_keys",
    "point_label",
    "points_to_csv",
    "rho_fiber_size",
    "theta",
]
