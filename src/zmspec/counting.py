"""Solution counting for the modular linear systems behind matrix entries.

Three layers: the closed-form count for a single 2x2 homogeneous system
mod p^e, the layer counts for the pair of inner-product equations
<u,w> = <v,w> = 0 restricted to p^g * Z_{p^e}^n, and the primitive-tuple
count these differences produce.  Exhaustive brute-force counters are
first-class operations so every closed form can be checked against a
scan.

Both brute-force counters run through one scan kernel, ``_scan``: the
tuples to scan are the columns of an int64 enumeration grid
(``_scan_grid``), and one integer product of the equations' coefficient
rows with the grid, reduced mod q, marks the solutions.  A grid depends
only on (q, step, n), so repeated scans of one modulus and layer build
it once and share it read-only.  The products are exact in int64 while
n(q-1)(q-step) < 2^63, which ``_scan`` checks before anything is built.
The public counters stay below a third of that bound: the factorization
bound keeps q at most 10^9, ``BRUTE_LAYER_LIMIT`` keeps n at most 20 once
a coordinate takes two values, and the one-tuple layer g = e has
q - step = 0.  The scan shares nothing with the closed forms: no minor,
valuation or gcd enters it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, GuardrailError
from .modular import factorize, is_prime, nu_p
from .projective import ProjectivePoint

BRUTE_MODULUS_LIMIT = 64
BRUTE_LAYER_LIMIT = 1 << 20
# the scan grids kept for reuse, and the most tuples a kept grid has: every
# 2x2 grid (at most 64^2 tuples) and every layer of the benchmark and the
# battery fits, while a larger layer's grid costs a scan's worth to build
# and is made afresh
_SCAN_GRIDS = 16
_KEPT_GRID_TUPLES = 1 << 12


@lru_cache(maxsize=None)
def _prime_power(m: int) -> tuple[int, int]:
    return factorize(m).prime_power()


@dataclass(frozen=True)
class LayerSpec:
    """Selects the layer p^g * Z_{p^e}^n = {w : p^g | gcd(w_1, ..., w_n)}."""

    g: int
    p: int
    e: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise DomainError(f"{self.p} is not prime")
        if self.e < 1:
            raise DomainError(f"exponent must be >= 1, got {self.e}")
        if not 0 <= self.g <= self.e:
            raise DomainError(f"layer index must satisfy 0 <= g <= e, got g = {self.g}")
        if self.n < 2:
            raise DomainError(f"dimension must be >= 2, got {self.n}")


def count_2x2(a: int, b: int, c: int, d: int, p: int, e: int) -> int:
    """Number of (x, y) in Z_{p^e}^2 with ax+by = cx+dy = 0 mod p^e.

    Closed form: gcd(ad - bc, p^e * gcd(a, b, c, d, p^e)).
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if e < 1:
        raise DomainError(f"exponent must be >= 1, got {e}")
    q = p**e
    return math.gcd(a * d - b * c, q * math.gcd(a, b, c, d, q))


def count_2x2_brute(a: int, b: int, c: int, d: int, p: int, e: int) -> int:
    """Exhaustive count over all p^(2e) pairs (oracle for the closed form)."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if e < 1:
        raise DomainError(f"exponent must be >= 1, got {e}")
    q = p**e
    if q > BRUTE_MODULUS_LIMIT:
        raise GuardrailError(f"brute-force scan limited to p^e <= {BRUTE_MODULUS_LIMIT}")
    return _scan(((a, b), (c, d)), q, 1)


@lru_cache(maxsize=_SCAN_GRIDS)
def _scan_grid(q: int, step: int, n: int) -> np.ndarray:
    """The read-only int64 n x N array whose columns are every n-tuple
    with entries 0, step, 2*step, ... below q, in lex order; step = q
    gives the one zero tuple.

    Cached for the grids of at most ``_KEPT_GRID_TUPLES`` tuples, which
    ``_scan`` looks up here; it calls ``_scan_grid.__wrapped__`` for a
    larger one.  A kept grid with N >= 2 has n <= 12 (2^n <= N), so it
    takes at most 12 * 2^12 * 8 bytes = 384 KiB, and the cache's 16
    grids at most 6 MiB; a one-tuple grid takes n * 8 bytes.  The 15
    grids of a crosscheck benchmark run, its warm-up included, take
    36 KiB together."""
    values = np.arange(0, q, step, dtype=np.int64)
    grid = values[np.indices((len(values),) * n).reshape(n, -1)]
    grid.flags.writeable = False
    return grid


def _scan(rows: tuple[tuple[int, ...], ...], q: int, step: int) -> int:
    """Number of columns w of the grid ``_scan_grid(q, step, n)``, n the
    length of each row, with <r, w> = 0 mod q for every coefficient row r.

    The rows are reduced mod q as Python ints, so entries of any size are
    fine, and then multiply the grid in int64: each sum is n products of
    a reduced coefficient (at most q - 1) and a grid entry (at most
    q - step), so it is exact while n(q-1)(q-step) < 2^63.  A plain
    comparison checks that before any array is made, so it holds under
    ``python -O``; GuardrailError otherwise."""
    n = len(rows[0])
    if n * (q - 1) * (q - step) >= 1 << 63:
        raise GuardrailError(f"a scan of {n}-tuples mod {q} in steps of {step} "
                             "would overflow int64")
    coeffs = np.array([[x % q for x in row] for row in rows], dtype=np.int64)
    build = _scan_grid if (q // step) ** n <= _KEPT_GRID_TUPLES else _scan_grid.__wrapped__
    return int(np.count_nonzero((coeffs @ build(q, step, n) % q == 0).all(axis=0)))


@dataclass(frozen=True)
class XiData:
    """The 2x2 minors of a point pair and their p-adic data.

    ``minors`` maps 1-based index pairs (i, j), i < j, to
    u_i*v_j - u_j*v_i; ``nu_xi`` is min(e, the least valuation of a
    nonzero minor), and ``xi`` = p^nu_xi is the gcd of all minors and p^e.
    """

    p: int
    e: int
    minors: dict[tuple[int, int], int]
    xi: int
    nu_xi: int


def _check_pair(u: ProjectivePoint, v: ProjectivePoint) -> tuple[int, int]:
    if u.modulus != v.modulus:
        raise DomainError("points live over different moduli")
    if u.dimension != v.dimension:
        raise DomainError("points have different dimensions")
    return _prime_power(u.modulus)


def xi_data(u: ProjectivePoint, v: ProjectivePoint) -> XiData:
    """Minors, nu_xi and xi = p^nu_xi for a pair over Z_{p^e}."""
    p, e = _check_pair(u, v)
    minors: dict[tuple[int, int], int] = {}
    n = u.dimension
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            minors[(i, j)] = u.coords[i - 1] * v.coords[j - 1] - u.coords[j - 1] * v.coords[i - 1]
    nu_xi = min([e] + [nu_p(p, m_ij) for m_ij in minors.values() if m_ij])
    return XiData(p=p, e=e, minors=minors, xi=p**nu_xi, nu_xi=nu_xi)


def good_pair(u: ProjectivePoint, v: ProjectivePoint) -> tuple[int, int]:
    """First 1-based index pair (i, j) with gcd(u_i,u_j,v_i,v_j,p^e) = 1
    and gcd(xi_ij, p^e) = xi.  Existence is guaranteed for canonical
    points; failure to find one signals a bug."""
    p, e = _check_pair(u, v)
    q = p**e
    data = xi_data(u, v)
    n = u.dimension
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            coord_gcd = math.gcd(
                u.coords[i - 1], u.coords[j - 1], v.coords[i - 1], v.coords[j - 1], q
            )
            if coord_gcd == 1 and math.gcd(data.minors[(i, j)], q) == data.xi:
                return (i, j)
    raise RuntimeError(
        f"no good index pair for {u.coords} and {v.coords} mod {q}; "
        "this violates a theorem and indicates a bug"
    )


def count_layer(u: ProjectivePoint, v: ProjectivePoint, layer: LayerSpec) -> int:
    """Solutions of <u,w> = <v,w> = 0 mod p^e in the layer p^g * Z_{p^e}^n.

    Closed form p^(beta + (e-g)(n-2)) with beta = min(nu_p(xi), e-g).
    """
    p, e = _check_pair(u, v)
    if (layer.p, layer.e) != (p, e):
        raise DomainError(f"layer is for {layer.p}^{layer.e}, points are mod {p}^{e}")
    if layer.n != u.dimension:
        raise DomainError(f"layer dimension {layer.n} does not match the points")
    # nu_xi caps the least valuation of a nonzero minor at e >= e - g, so
    # this is min(that valuation, e - g)
    beta = min(xi_data(u, v).nu_xi, e - layer.g)
    return p ** (beta + (e - layer.g) * (u.dimension - 2))


def layer_scan_size(layer: LayerSpec) -> int:
    """Number of tuples the brute-force scan of a layer visits:
    p^(e-g) values per coordinate."""
    return (layer.p ** (layer.e - layer.g)) ** layer.n


def count_layer_brute(u: ProjectivePoint, v: ProjectivePoint, g: int) -> int:
    """Exhaustive scan of the layer (oracle for count_layer)."""
    p, e = _check_pair(u, v)
    size = layer_scan_size(LayerSpec(g=g, p=p, e=e, n=u.dimension))
    if size > BRUTE_LAYER_LIMIT:
        raise GuardrailError(f"layer scan of {size} tuples exceeds the oracle scale")
    return _scan((u.coords, v.coords), p**e, p**g)


def count_primitive(u: ProjectivePoint, v: ProjectivePoint) -> int:
    """Solutions of the pair of equations among primitive tuples.

    The primitive tuples are layer g=0 minus layer g=1, and the result
    is phi(p^e) times the matrix entry b_uv.
    """
    p, e = _check_pair(u, v)
    n = u.dimension
    full = count_layer(u, v, LayerSpec(g=0, p=p, e=e, n=n))
    divisible = count_layer(u, v, LayerSpec(g=1, p=p, e=e, n=n))
    return full - divisible


__all__ = [
    "LayerSpec",
    "XiData",
    "count_2x2",
    "count_2x2_brute",
    "count_layer",
    "count_layer_brute",
    "count_primitive",
    "good_pair",
    "xi_data",
]
