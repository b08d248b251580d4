"""Solution counting for the modular linear systems behind matrix entries.

Three layers: the closed-form count for a single 2x2 homogeneous system
mod p^e, the layer counts for the pair of inner-product equations
<u,w> = <v,w> = 0 restricted to p^g * Z_{p^e}^n, and the primitive-tuple
count these differences produce.  Exhaustive brute-force counters are
first-class operations so every closed form can be checked against a
scan.
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
    q = p**e
    if q > BRUTE_MODULUS_LIMIT:
        raise GuardrailError(f"brute-force scan limited to p^e <= {BRUTE_MODULUS_LIMIT}")
    xs = np.arange(q, dtype=np.int64)
    first = (np.add.outer(a % q * xs % q, b % q * xs % q) % q) == 0
    second = (np.add.outer(c % q * xs % q, d % q * xs % q) % q) == 0
    return int(np.count_nonzero(first & second))


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
    q = p**e
    step = p**g
    if size > BRUTE_LAYER_LIMIT:
        raise GuardrailError(f"layer scan of {size} tuples exceeds the oracle scale")
    values = np.arange(0, q, step, dtype=np.int64) if g < e else np.array([0], dtype=np.int64)
    # column t of the grid is the t-th tuple of the layer
    grid = values[np.indices((len(values),) * u.dimension).reshape(u.dimension, -1)]
    uu = np.array(u.coords, dtype=np.int64)
    vv = np.array(v.coords, dtype=np.int64)
    hits = ((uu @ grid) % q == 0) & ((vv @ grid) % q == 0)
    return int(np.count_nonzero(hits))


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
