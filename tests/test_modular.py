import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmspec.errors import DomainError, NotAUnitError
from zmspec.modular import (
    Modulus,
    crt_combine,
    euler_phi,
    factorize,
    is_prime,
    mod_inverse,
    nu_p,
    units,
)


def test_factorize_examples():
    assert factorize(4).factors == ((2, 2),)
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(7).factors == ((7, 1),)


def test_factorize_rejects_bad_input():
    with pytest.raises(DomainError):
        factorize(1)
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(10**10, bound=10**9)


def test_modulus_validates_itself():
    with pytest.raises(DomainError):
        Modulus(12, ((3, 1), (2, 2)))  # primes out of order
    with pytest.raises(DomainError):
        Modulus(12, ((2, 2),))  # incomplete
    with pytest.raises(DomainError):
        Modulus(8, ((8, 1),))  # not prime


def test_prime_power_accessor():
    assert factorize(8).prime_power() == (2, 3)
    assert factorize(49).is_prime_power
    with pytest.raises(DomainError):
        factorize(12).prime_power()


def test_nu_p_examples():
    assert nu_p(2, 12) == 2
    assert nu_p(5, 7) == 0
    assert nu_p(3, -18) == 2
    with pytest.raises(DomainError):
        nu_p(3, 0)
    with pytest.raises(DomainError):
        nu_p(4, 8)


@settings(derandomize=True, max_examples=200)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    s=st.integers(min_value=-500, max_value=500).filter(bool),
    t=st.integers(min_value=-500, max_value=500).filter(bool),
)
def test_valuation_properties(p, s, t):
    vs, vt = nu_p(p, s), nu_p(p, t)
    # divisibility of the defining power
    assert s % p**vs == 0 and s % p ** (vs + 1) != 0
    # additive over products
    assert nu_p(p, s * t) == vs + vt
    # ultrametric inequality, equality when the valuations differ
    if s + t:
        vsum = nu_p(p, s + t)
        assert vsum >= min(vs, vt)
        if vs != vt:
            assert vsum == min(vs, vt)


def test_euler_phi_examples():
    assert euler_phi(4) == 2
    assert euler_phi(2) == 1
    # gcd-scan oracle for the composite case
    assert euler_phi(12) == sum(1 for a in range(12) if math.gcd(a, 12) == 1)
    assert euler_phi(12) == 4


def test_mod_inverse_examples():
    assert mod_inverse(3, 8) == 3
    assert mod_inverse(1, 97) == 1
    assert mod_inverse(5, 7) == 3
    with pytest.raises(NotAUnitError):
        mod_inverse(6, 8)


def test_crt_examples():
    assert crt_combine([(1, 2), (2, 3)]) == 5
    assert crt_combine([(0, 2), (0, 3)]) == 0
    # scan oracle over [0, 12)
    expected = [x for x in range(12) if x % 4 == 1 and x % 3 == 2]
    assert crt_combine([(1, 4), (2, 3)]) == expected[0] == 5


def test_crt_rejects_non_coprime():
    with pytest.raises(DomainError):
        crt_combine([(1, 4), (1, 6)])
    with pytest.raises(DomainError):
        crt_combine([])


@settings(derandomize=True, max_examples=100)
@given(
    vals=st.tuples(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
)
def test_crt_round_trip(vals):
    moduli = (5, 8, 9)
    residues = [(v % m, m) for v, m in zip(vals, moduli)]
    x = crt_combine(residues)
    assert 0 <= x < 5 * 8 * 9
    for v, m in residues:
        assert x % m == v


def test_units_examples():
    assert units(4) == (1, 3)
    assert units(2) == (1,)
    assert units(6) == (1, 5)


def test_units_count_matches_totient_up_to_1000():
    for m in range(2, 1001):
        assert len(units(m)) == euler_phi(m)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {p for p in range(30) if is_prime(p)} == primes
