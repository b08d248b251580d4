"""Projective point sets over Z_m.

P_{n,m} is the set of primitive n-tuples mod m (gcd of all entries and m
equal to 1) taken modulo scaling by units.  This module enumerates the
point set, fixes canonical orbit representatives, computes the point
count, and implements the reduction map between prime-power levels
together with its fibers and the partition of P_{n,p^e} into fiber
transversals K_1, ..., K_{p^(n-1)}.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import dataclass, field

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
    g = m
    for c in coords:
        g = math.gcd(g, c)
        if g == 1:
            return True
    return g == 1


@dataclass(frozen=True)
class ProjectivePoint:
    """Canonical representative of a point of P_{n,m}.

    The representative is the lexicographically smallest tuple in the
    orbit {lambda * u mod m : lambda a unit}, entries in [0, m).
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
        for lam in units(m):
            if tuple(lam * c % m for c in self.coords) < self.coords:
                raise DomainError(
                    f"{self.coords} is not the canonical representative mod {m}"
                )

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return point_label(self)


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
    """The ordered point list of P_{n,m} plus index lookup."""

    n: int
    m: Modulus
    ordering: str
    points: tuple[ProjectivePoint, ...]
    index: dict[ProjectivePoint, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, pt: ProjectivePoint) -> bool:
        return pt in self.index

    def position(self, pt: ProjectivePoint) -> int:
        try:
            return self.index[pt]
        except KeyError:
            raise DomainError(f"{pt.coords} is not a point of P_{{{self.n},{self.m.value}}}")


def _lex_points(n: int, m: int) -> list[ProjectivePoint]:
    """All canonical representatives in lexicographic order.

    Scans the m^n tuples in lex order; the first tuple seen from each
    orbit is its lex minimum, so canonicalization is free and the rest
    of the orbit is marked off in a flat bitmap.
    """
    us = units(m)
    weights = [m ** (n - 1 - k) for k in range(n)]
    seen = bytearray(m**n)
    points: list[ProjectivePoint] = []
    idx = -1
    for tup in itertools.product(range(m), repeat=n):
        idx += 1
        if seen[idx]:
            continue
        if not is_primitive(tup, m):
            continue
        points.append(ProjectivePoint(tup, m))
        for lam in us:
            flat = 0
            for c, w in zip(tup, weights):
                flat += (lam * c % m) * w
            seen[flat] = 1
    return points


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

    if ordering == "k-grouped":
        p, e = mod.prime_power()  # raises DomainError for composite m
        if e < 2:
            raise DomainError("k-grouped ordering needs a prime power p^e with e >= 2")
        partition = k_partition(p, e, n, guardrail=limit)
        points = tuple(pt for cls in partition.classes for pt in cls)
    else:
        points = tuple(_lex_points(n, mod.value))

    if len(points) != count:
        raise DomainError(
            f"enumerated {len(points)} points of P_{{{n},{mod.value}}}, theta is {count}"
        )
    index = {pt: i for i, pt in enumerate(points)}
    return ProjectiveSpace(n=n, m=mod, ordering=ordering, points=points, index=index)


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
    """

    p: int
    e: int
    n: int
    classes: tuple[tuple[ProjectivePoint, ...], ...]
    base_space: ProjectiveSpace
    space: ProjectiveSpace
    base_position: dict[ProjectivePoint, int] = field(repr=False)

    @property
    def l(self) -> int:
        return len(self.classes)


def k_partition(p: int, e: int, n: int, guardrail: int | None = None) -> KPartition:
    """Build the canonical fiber-transversal partition of P_{n,p^e}."""
    if e < 2:
        raise DomainError(f"the partition needs e >= 2, got e = {e}")
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    limit = effective_guardrail(guardrail)
    base_space = enumerate_space(n, p ** (e - 1), "lex", guardrail=limit)
    space = enumerate_space(n, p**e, "lex", guardrail=limit)

    fibers: dict[int, list[ProjectivePoint]] = {i: [] for i in range(len(base_space))}
    base_position: dict[ProjectivePoint, int] = {}
    for pt in space.points:
        pos = base_space.position(delta_map(pt, p, e))
        fibers[pos].append(pt)
        base_position[pt] = pos

    size = p ** (n - 1)
    for pos, members in fibers.items():
        if len(members) != size:
            raise DomainError(
                f"fiber over base point {pos} has size {len(members)}, expected {size}"
            )
        members.sort(key=lambda pt: pt.coords)

    classes = tuple(
        tuple(fibers[pos][h] for pos in range(len(base_space))) for h in range(size)
    )
    return KPartition(
        p=p,
        e=e,
        n=n,
        classes=classes,
        base_space=base_space,
        space=space,
        base_position=base_position,
    )


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
    "DEFAULT_GUARDRAIL",
    "GUARDRAIL_ENV",
    "KPartition",
    "ProjectivePoint",
    "ProjectiveSpace",
    "canonical_rep",
    "delta_map",
    "effective_guardrail",
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
