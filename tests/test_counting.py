import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmspec.counting import (
    LayerSpec,
    count_2x2,
    count_2x2_brute,
    count_layer,
    count_layer_brute,
    count_primitive,
    good_pair,
    xi_data,
)
from zmspec.errors import DomainError, GuardrailError
from zmspec.modular import euler_phi
from zmspec.projective import canonical_rep, enumerate_space


def test_count_2x2_examples():
    assert count_2x2(0, 0, 0, 0, 2, 2) == 16  # p^(2e), the all-zero system
    assert count_2x2(1, 0, 0, 1, 2, 2) == 1
    assert count_2x2(2, 0, 0, 2, 2, 2) == 4 == count_2x2_brute(2, 0, 0, 2, 2, 2)


def test_count_2x2_brute_examples():
    assert count_2x2_brute(0, 0, 0, 0, 2, 2) == 16
    assert count_2x2_brute(1, 2, 3, 4, 5, 1) == 1
    assert count_2x2_brute(3, 1, 1, 3, 2, 3) == 8


def test_count_2x2_brute_scale_limit():
    with pytest.raises(GuardrailError):
        count_2x2_brute(1, 0, 0, 1, 2, 7)


def test_count_2x2_exhaustive_small_moduli():
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        q = p**e
        for a, b, c, d in itertools.product(range(q), repeat=4):
            assert count_2x2(a, b, c, d, p, e) == count_2x2_brute(a, b, c, d, p, e)


@settings(derandomize=True, max_examples=300)
@given(quad=st.tuples(*[st.integers(min_value=0, max_value=8)] * 4),
       pe=st.sampled_from([(2, 3), (3, 2)]))
def test_count_2x2_sampled_large_moduli(quad, pe):
    a, b, c, d = quad
    p, e = pe
    assert count_2x2(a, b, c, d, p, e) == count_2x2_brute(a, b, c, d, p, e)


def test_xi_data_equal_points():
    u = canonical_rep((1, 0, 0), 4)
    data = xi_data(u, u)
    # every minor is 0, so nu_xi is capped at e
    assert set(data.minors.values()) == {0}
    assert data.xi == 4 and data.nu_xi == 2


def test_xi_data_examples():
    u = canonical_rep((0, 0, 1), 4)
    v = canonical_rep((0, 1, 0), 4)
    data = xi_data(u, v)
    assert data.minors[(2, 3)] == -1
    assert data.nu_xi == 0 and data.xi == 1

    w = canonical_rep((0, 2, 1), 4)
    data2 = xi_data(u, w)
    assert sorted(data2.minors.values()) == [-2, 0, 0]
    assert data2.nu_xi == 1 and data2.xi == 2


def test_xi_is_gcd_of_minors_and_pe():
    import math

    space = enumerate_space(3, 8)
    pts = space.points[::7]
    for u in pts:
        for v in pts:
            data = xi_data(u, v)
            g = 8
            for m_ij in data.minors.values():
                g = math.gcd(g, m_ij)
            assert data.xi == g


def test_xi_valuation_below_e_for_distinct_points():
    space = enumerate_space(3, 8)
    for u in space.points[::5]:
        for v in space.points[::11]:
            if u != v:
                assert xi_data(u, v).nu_xi < 3


def test_good_pair_examples():
    u = canonical_rep((0, 0, 1), 4)
    v = canonical_rep((0, 1, 0), 4)
    assert good_pair(u, v) == (2, 3)

    w = canonical_rep((1, 0, 0), 4)
    assert good_pair(w, w) == (1, 2)


def test_good_pair_satisfies_definition():
    import math

    space = enumerate_space(3, 8)
    for u in space.points[::5]:
        for v in space.points[::11]:
            i, j = good_pair(u, v)
            data = xi_data(u, v)
            assert math.gcd(u.coords[i - 1], u.coords[j - 1],
                            v.coords[i - 1], v.coords[j - 1], 8) == 1
            assert math.gcd(data.minors[(i, j)], 8) == data.xi


def test_count_layer_examples():
    u = canonical_rep((0, 0, 1), 4)
    v = canonical_rep((0, 1, 0), 4)
    assert count_layer(u, v, LayerSpec(g=0, p=2, e=2, n=3)) == 4
    assert count_layer(u, v, LayerSpec(g=2, p=2, e=2, n=3)) == 1

    w = canonical_rep((0, 2, 1), 4)
    assert count_layer(u, w, LayerSpec(g=0, p=2, e=2, n=3)) == 8


def test_count_layer_matches_brute_on_p34():
    space = enumerate_space(3, 4)
    for u in space.points:
        for v in space.points:
            for g in range(3):
                spec = LayerSpec(g=g, p=2, e=2, n=3)
                assert count_layer(u, v, spec) == count_layer_brute(u, v, g)


def test_count_layer_weakly_decreasing_in_g():
    space = enumerate_space(3, 8)
    pts = space.points[::9]
    for u in pts:
        for v in pts:
            counts = [
                count_layer(u, v, LayerSpec(g=g, p=2, e=3, n=3)) for g in range(4)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_count_primitive_examples():
    u = canonical_rep((0, 0, 1), 4)
    assert count_primitive(u, u) == 12 == euler_phi(4) * 6

    w = canonical_rep((0, 2, 1), 4)
    assert count_primitive(u, w) == 4 == euler_phi(4) * 2

    v = canonical_rep((0, 1, 0), 4)
    assert count_primitive(u, v) == 2 == euler_phi(4) * 1


def test_count_primitive_divisible_by_totient():
    space = enumerate_space(3, 4)
    phi = euler_phi(4)
    for u in space.points:
        for v in space.points:
            n_uv = count_primitive(u, v)
            assert n_uv % phi == 0
            assert n_uv == count_layer_brute(u, v, 0) - count_layer_brute(u, v, 1)


def test_layer_spec_validation():
    with pytest.raises(DomainError):
        LayerSpec(g=3, p=2, e=2, n=3)
    with pytest.raises(DomainError):
        LayerSpec(g=-1, p=2, e=2, n=3)
    with pytest.raises(DomainError):
        LayerSpec(g=0, p=4, e=2, n=3)


def test_mixed_moduli_rejected():
    u = canonical_rep((0, 0, 1), 4)
    v = canonical_rep((0, 0, 1), 8)
    with pytest.raises(DomainError):
        xi_data(u, v)
    with pytest.raises(DomainError):
        xi_data(canonical_rep((0, 1), 6), canonical_rep((1, 0), 6))  # composite
