"""Exact integer and modular arithmetic primitives.

Factorization (trial division, desk scale), Euler's totient, p-adic
valuations of nonzero integers, modular inverses, CRT recombination and
unit-group enumeration.  Everything is plain arbitrary-precision integer
arithmetic; nothing here is approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotAUnitError

DEFAULT_FACTOR_BOUND = 10**9


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Modulus:
    """An integer m >= 2 together with its full prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes whose product reconstructs ``value``.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 2:
            raise DomainError(f"modulus must be >= 2, got {self.value}")
        prod = 1
        prev_p = 1
        for p, e in self.factors:
            if p <= prev_p:
                raise DomainError("factor primes must be strictly increasing")
            if e < 1:
                raise DomainError("factor exponents must be >= 1")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prod *= p**e
            prev_p = p
        if prod != self.value:
            raise DomainError(
                f"factorization {self.factors} does not multiply to {self.value}"
            )

    def prime_power(self) -> tuple[int, int]:
        """Return (p, e) if the value is a prime power, else raise."""
        if len(self.factors) != 1:
            raise DomainError(f"{self.value} is not a prime power")
        return self.factors[0]

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1

    def __int__(self) -> int:
        return self.value


def factorize(m: int, bound: int = DEFAULT_FACTOR_BOUND) -> Modulus:
    """Factor m >= 2 by trial division.

    ``bound`` caps the accepted input; this is a desk-scale tool, not a
    general-purpose factorizer.
    """
    if m < 2:
        raise DomainError(f"cannot factor {m}: need an integer >= 2")
    if m > bound:
        raise DomainError(f"{m} exceeds the factorization bound {bound}")
    factors = []
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p = 3 if p == 2 else p + 2
    if rest > 1:
        factors.append((rest, 1))
    return Modulus(m, tuple(factors))


def as_modulus(m: int | Modulus) -> Modulus:
    return m if isinstance(m, Modulus) else factorize(m)


def nu_p(p: int, t: int) -> int:
    """Largest e with p^e | t, for t != 0."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if t == 0:
        raise DomainError("the valuation of 0 is infinite")
    t = abs(t)
    e = 0
    while t % p == 0:
        t //= p
        e += 1
    return e


def euler_phi(m: int | Modulus) -> int:
    """Euler's totient, computed from the factorization."""
    mod = as_modulus(m)
    phi = 1
    for p, e in mod.factors:
        phi *= p**e - p ** (e - 1)
    return phi


def mod_inverse(a: int, m: int) -> int:
    """The inverse of a modulo m, in [0, m)."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise NotAUnitError(f"{a} is not a unit modulo {m}")
    return pow(a, -1, m)


def crt_combine(residues: list[tuple[int, int]] | tuple[tuple[int, int], ...]) -> int:
    """Combine (value, modulus) pairs with pairwise coprime moduli.

    Returns the unique x in [0, prod moduli) with x = value_s mod modulus_s
    for every s.
    """
    if not residues:
        raise DomainError("need at least one residue")
    for _, m in residues:
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {m}")
    for i in range(len(residues)):
        for j in range(i + 1, len(residues)):
            if math.gcd(residues[i][1], residues[j][1]) != 1:
                raise DomainError(
                    f"moduli {residues[i][1]} and {residues[j][1]} are not coprime"
                )
    x, m = residues[0][0] % residues[0][1], residues[0][1]
    for v, mi in residues[1:]:
        # x + m*k = v (mod mi)  =>  k = (v - x) / m (mod mi)
        k = ((v - x) * pow(m, -1, mi)) % mi if mi > 1 else 0
        x += m * k
        m *= mi
        x %= m
    return x


@lru_cache(maxsize=None)
def units(m: int) -> tuple[int, ...]:
    """Ascending tuple of all units of Z_m."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    return tuple(a for a in range(1, m) if math.gcd(a, m) == 1)


__all__ = [
    "Modulus",
    "as_modulus",
    "crt_combine",
    "euler_phi",
    "factorize",
    "is_prime",
    "mod_inverse",
    "nu_p",
    "units",
]
