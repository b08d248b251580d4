"""Projective point sets over Z_m.

P_{n,m} is the set of primitive n-tuples mod m (gcd of all entries and m
equal to 1) taken modulo scaling by units.  This module enumerates the
point set, fixes canonical orbit representatives, computes the point
count, and implements the reduction map between prime-power levels
together with its fibers and the partition of P_{n,p^e} into fiber
transversals K_1, ..., K_{p^(n-1)}.

The enumeration scan visits only the tuples whose first nonzero entry
divides m, in lex order, and keeps the orbit minima among them.  Which
point a coordinate tuple represents is answered by one position table
per space, filled from the space's ordered points by one scatter per
unit when it is first needed, so ``ProjectiveSpace.positions`` maps any
array of tuples to points with one gather.  The reduction map behind the
K-partition and the CRT map behind the tensor lemma are such gathers.
``canonical_rep``, ``delta_map`` and ``fiber`` compute the same answers
one point at a time and are kept as independent oracles.

Each space is scanned once per command: whatever needs a space takes the
space itself, and ``ProjectiveSpace.from_points`` rebuilds a space from
the point labels a matrix carries without scanning.  ``k_partition``
takes P_{n,p^e} and enumerates only its base P_{n,p^(e-1)}, with the
size of the space it came from as the limit, so a user's limit enters
only through ``enumerate_space``.
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
    if pt.modulus <= 10:
        return "".join(str(c) for c in pt.coords)
    return ",".join(str(c) for c in pt.coords)


def canonical_rep(coords: tuple[int, ...] | list[int], m: int) -> ProjectivePoint:
    """Canonical representative of the orbit of ``coords`` under units."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    reduced = tuple(c % m for c in coords)
    if not is_primitive(reduced, m):
        raise DomainError(f"{tuple(coords)} is not primitive mod {m}")
    best = min(tuple(lam * c % m for c in reduced) for lam in units(m))
    return ProjectivePoint(best, m)


@dataclass(frozen=True, eq=False)
class ProjectiveSpace:
    """The ordered point list of P_{n,m} plus its position table.

    ``coords`` is the read-only theta x n int64 array whose row i is
    ``points[i].coords``.  ``table``, filled on first use, answers which
    point a tuple represents.  ``ordering`` is "lex" or "k-grouped" for
    an enumerated space and "given" for one built by ``from_points``.
    """

    n: int
    m: Modulus
    ordering: str
    points: tuple[ProjectivePoint, ...]
    coords: np.ndarray = field(repr=False)

    @classmethod
    def _from_points(cls, n: int, mod: Modulus, ordering: str, points: tuple) -> ProjectiveSpace:
        """The space with these ordered points, which must be exactly the
        points of P_{n,m}."""
        coords = np.array([pt.coords for pt in points], dtype=np.int64)
        coords.flags.writeable = False
        return cls(n, mod, ordering, points, coords)

    @classmethod
    def from_points(cls, n: int, m: int | Modulus, points) -> ProjectiveSpace:
        """P_{n,m} with its points in the given order, such as the row
        labels of a matrix built over some ordering of the space.  Nothing
        is enumerated.

        ``points`` must be theta(n, m) distinct ProjectivePoints of modulus
        m and dimension n.  Each is canonical and primitive by
        construction, so they are then exactly the points of P_{n,m};
        anything else raises DomainError."""
        mod = as_modulus(m)
        points = tuple(points)
        if not (
            len(points) == theta(n, mod)
            and all(isinstance(pt, ProjectivePoint) and pt.modulus == mod.value
                    and pt.dimension == n for pt in points)
            and len(set(points)) == len(points)
        ):
            raise DomainError(f"the points given are not those of P_{{{n},{mod.value}}}")
        return cls._from_points(n, mod, "given", points)

    @cached_property
    def table(self) -> np.ndarray:
        """The read-only flat array over the m^n tuples of Z_m^n in lex
        order: entry t holds 1 + the position of the point that tuple t
        represents, and 0 when t is not primitive.  It is 2-byte while
        theta < 2^15 and 4-byte above that.

        The orbit of point i is {lambda * u mod m : lambda a unit}, phi(m)
        distinct tuples because u is primitive, so writing 1 + i at each
        unit multiple of every point, one scatter per unit, fills each
        primitive tuple exactly once."""
        m = self.m.value
        table = np.zeros(m**self.n, dtype=np.int16 if len(self) < 1 << 15 else np.int32)
        position = np.arange(1, len(self) + 1, dtype=table.dtype)
        for lam in units(m):
            table[_lex_index(lam * self.coords % m, m)] = position
        table.flags.writeable = False
        return table

    def __len__(self) -> int:
        return len(self.points)

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

        A row may be any representative of its point: it is reduced mod m
        here, Python ints before the int64 cast.  Integer and bool entries
        are accepted; a float, a string or any other entry, and a row that
        is not primitive, raise DomainError."""
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
        reduced = (arr % m).astype(np.int64, copy=False)
        if reduced.ndim != 2 or reduced.shape[1] != self.n:
            raise DomainError(f"rows of {self.n} coordinates expected, got shape {reduced.shape}")
        out = self.table[_lex_index(reduced, m)] - 1
        if out.size and out.min() < 0:
            bad = tuple(reduced[np.argmin(out)].tolist())
            raise DomainError(f"{bad} is not primitive mod {m}")
        return out.astype(np.int64, copy=False)


def _lex_index(rows: np.ndarray, m: int) -> np.ndarray:
    """Index of each row of a reduced integer array among the tuples of
    Z_m^n in lex order: the row read as base-m digits."""
    return rows @ m ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)


def _lex_points(n: int, m: int) -> tuple[ProjectivePoint, ...]:
    """All canonical representatives of P_{n,m} in lexicographic order.

    An orbit minimum has a first nonzero entry d that divides m (see
    ``_is_orbit_minimum``), so only the tuples (0, ..., 0, d, *rest) with
    d a divisor of m below m are visited: more leading zeros first, then
    d ascending, then rest in lex order, which is lex order.  Every d = 1
    tuple is primitive and canonical; a d > 1 tuple is kept when it is
    primitive and no unit lowers it.
    """
    divisors = [d for d in range(1, m) if m % d == 0]
    points = []
    for zeros in range(n - 1, -1, -1):
        for d in divisors:
            for rest in itertools.product(range(m), repeat=n - 1 - zeros):
                tup = (0,) * zeros + (d,) + rest
                if d == 1 or (is_primitive(tup, m) and _is_orbit_minimum(tup, m)):
                    points.append(ProjectivePoint(tup, m))
    return tuple(points)


def enumerate_space(
    n: int,
    m: int | Modulus,
    ordering: str = "lex",
    guardrail: int | None = None,
) -> ProjectiveSpace:
    """Enumerate P_{n,m} with a deterministic point order.

    ``lex`` orders points by their canonical coordinate tuples.
    ``k-grouped`` (prime powers p^e with e >= 2 only) concatenates the
    partition classes K_1..K_{p^(n-1)}, each sorted by the position of
    its reduction in the lex-ordered base space P_{n,p^(e-1)}.
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

    points = _lex_points(n, mod.value)
    if len(points) != count:
        raise DomainError(
            f"enumerated {len(points)} points of P_{{{n},{mod.value}}}, theta is {count}"
        )
    space = ProjectiveSpace._from_points(n, mod, "lex", points)
    if ordering == "lex":
        return space
    order = k_partition(space).positions.ravel().tolist()
    return ProjectiveSpace._from_points(n, mod, ordering, tuple(map(points.__getitem__, order)))


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


@dataclass(frozen=True, eq=False)
class KPartition:
    """Partition of P_{n,p^e} into l = p^(n-1) transversals of all fibers.

    Class K_h collects, for every base point u of P_{n,p^(e-1)} in lex
    order, the h-th member (lex rank) of the fiber over u.  Each class
    therefore meets every fiber exactly once, and within a class points
    are aligned with the lex order of their reductions.

    ``positions`` is the read-only l x theta_{n,p^(e-1)} array whose row h
    holds the positions in ``space`` of the points of K_h, and
    ``base_position[i]`` is the position in ``base_space`` of the
    reduction of point i of ``space``.  ``classes``, the points of each
    K_h, is read from ``positions`` the first time it is asked for.
    """

    p: int
    e: int
    n: int
    base_space: ProjectiveSpace
    space: ProjectiveSpace
    positions: np.ndarray = field(repr=False)
    base_position: np.ndarray = field(repr=False)

    @property
    def l(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def classes(self) -> tuple[tuple[ProjectivePoint, ...], ...]:
        points = self.space.points
        return tuple(tuple(map(points.__getitem__, row)) for row in self.positions.tolist())


def k_partition(space: ProjectiveSpace) -> KPartition:
    """Build the canonical fiber-transversal partition of the space
    P_{n,p^e}, with positions in the space's own order.

    Only the base space P_{n,p^(e-1)} is enumerated, in lex order, with
    the space's size as its limit.  The reduction map is one gather: the
    base space's position table read at the coordinates of every point.
    A stable sort keeps each fiber in the space's order, which is its lex
    order in both the lex and the k-grouped ordering."""
    p, e = space.m.prime_power()
    if e < 2:
        raise DomainError(f"the partition needs e >= 2, got e = {e}")
    n = space.n
    base_space = enumerate_space(n, p ** (e - 1), "lex", guardrail=len(space))
    base_position = base_space.positions(space.coords)

    size = p ** (n - 1)
    sizes = np.bincount(base_position, minlength=len(base_space))
    if (sizes != size).any():
        pos = int(np.argmax(sizes != size))
        raise DomainError(
            f"fiber over base point {pos} has size {sizes[pos]}, expected {size}"
        )

    # column u of the reshape is the fiber over base point u, so row h is K_h
    order = np.argsort(base_position, kind="stable")
    positions = np.ascontiguousarray(order.reshape(len(base_space), size).T)
    positions.flags.writeable = base_position.flags.writeable = False
    return KPartition(p, e, n, base_space, space, positions, base_position)


def points_to_csv(space: ProjectiveSpace) -> str:
    """Point list as CSV: index column plus one column per coordinate."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index"] + [f"c{i + 1}" for i in range(space.n)])
    for i, pt in enumerate(space.points):
        writer.writerow([i] + list(pt.coords))
    return buf.getvalue()


def orbit_size(pt: ProjectivePoint) -> int:
    """Size of {lambda * u : lambda a unit}; always phi(m) for primitive u."""
    m = pt.modulus
    return len({tuple(lam * c % m for c in pt.coords) for lam in units(m)})


__all__ = [
    "KPartition",
    "ProjectivePoint",
    "ProjectiveSpace",
    "canonical_rep",
    "delta_map",
    "enumerate_space",
    "fiber",
    "is_primitive",
    "k_partition",
    "neighborhood",
    "orbit_size",
    "point_label",
    "points_to_csv",
    "rho_fiber_size",
    "theta",
]
