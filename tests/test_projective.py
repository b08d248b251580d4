import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmspec import projective
from zmspec.errors import DomainError, GuardrailError
from zmspec.modular import euler_phi, units
from zmspec.projective import (
    ProjectivePoint,
    ProjectiveSpace,
    canonical_rep,
    delta_map,
    enumerate_space,
    fiber,
    is_primitive,
    neighborhood,
    orbit_size,
    point_keys,
    point_label,
    points_to_csv,
    rho_fiber_size,
    theta,
)

# k-grouped row labels of B_{3,4}: the four partition classes in order
KGROUPED_B34_LABELS = [
    "001", "010", "011", "100", "101", "110", "111",
    "021", "012", "013", "102", "103", "112", "113",
    "201", "210", "211", "120", "121", "130", "131",
    "221", "212", "213", "122", "123", "132", "133",
]


def brute_theta(n, m):
    """Orbit-enumeration oracle: count equivalence classes of S_{n,m} directly."""
    seen = set()
    count = 0
    for tup in itertools.product(range(m), repeat=n):
        if tup in seen or math.gcd(*tup, m) != 1:
            continue
        count += 1
        for lam in units(m):
            seen.add(tuple(lam * c % m for c in tup))
    return count


def test_theta_examples():
    assert theta(3, 2) == 7
    assert theta(3, 4) == 28
    assert theta(2, 6) == 12 == brute_theta(2, 6)


def test_theta_matches_brute_enumeration():
    for n, m in [(2, 4), (2, 9), (2, 12), (3, 2), (3, 3), (3, 4), (3, 6), (4, 2), (4, 3)]:
        assert theta(n, m) == brute_theta(n, m)


def test_theta_degenerate_dimension():
    # theta(1, m) = 1 backs the neighborhood-size identity at n = 2
    assert theta(1, 12) == 1
    with pytest.raises(DomainError):
        theta(0, 4)


def test_is_primitive_examples():
    assert is_primitive((0, 0, 1), 4)
    assert not is_primitive((0, 2, 2), 4)
    assert is_primitive((2, 3), 6)


def test_canonical_rep_examples():
    assert canonical_rep((0, 1), 8).coords == (0, 1)
    # orbit of (2,3) mod 4 under units {1,3} is {(2,3),(2,1)}
    assert canonical_rep((2, 3), 4).coords == (2, 1)
    # orbit of (1,1,3) mod 4 is {(1,1,3),(3,3,1)}
    assert canonical_rep((1, 1, 3), 4).coords == (1, 1, 3)
    with pytest.raises(DomainError):
        canonical_rep((0, 2, 2), 4)


@settings(derandomize=True, max_examples=150)
@given(
    m=st.sampled_from([2, 3, 4, 6, 8, 9, 12]),
    coords=st.tuples(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ),
)
def test_canonical_rep_constant_on_orbits(m, coords):
    reduced = tuple(c % m for c in coords)
    if not is_primitive(reduced, m):
        return
    rep = canonical_rep(reduced, m)
    # idempotent, and identical for every unit multiple
    assert canonical_rep(rep.coords, m) == rep
    for lam in units(m):
        scaled = tuple(lam * c % m for c in reduced)
        assert canonical_rep(scaled, m) == rep


def test_projective_point_validates():
    with pytest.raises(DomainError):
        ProjectivePoint((2, 3), 4)  # not the orbit minimum
    with pytest.raises(DomainError):
        ProjectivePoint((0, 2), 4)  # not primitive
    with pytest.raises(DomainError):
        ProjectivePoint((0, 5), 4)  # not reduced


def _accepted(coords, m):
    try:
        ProjectivePoint(coords, m)
    except DomainError:
        return False
    return True


def test_projective_point_accepts_exactly_the_orbit_minima():
    # the constructor walks only the units that fix the first nonzero entry
    # mod m; a full walk over all units here is the oracle
    checked = 0
    for n, m in [(2, 12), (3, 8), (3, 12), (2, 36), (3, 9), (4, 6), (2, 30), (3, 16), (2, 72)]:
        us = units(m)
        for t in itertools.product(range(m), repeat=n):
            if not is_primitive(t, m):
                continue
            canonical = all(tuple(lam * c % m for c in t) >= t for lam in us)
            assert _accepted(t, m) == canonical, (n, m, t)
            checked += 1
    assert checked == 12382


def test_enumerate_space_p32():
    space = enumerate_space(3, 2)
    assert [point_label(pt) for pt in space.points] == [
        "001", "010", "011", "100", "101", "110", "111"
    ]


def test_enumerate_space_p22():
    space = enumerate_space(2, 2)
    assert [pt.coords for pt in space.points] == [(0, 1), (1, 0), (1, 1)]


def test_enumerate_space_k_grouped_layout():
    space = enumerate_space(3, 4, "k-grouped")
    assert [point_label(pt) for pt in space.points] == KGROUPED_B34_LABELS


@pytest.mark.parametrize("n, m, ordering", [(3, 2, "lex"), (3, 10, "lex"), (2, 12, "lex"),
                                             (3, 9, "k-grouped")])
def test_labels_are_the_point_labels(n, m, ordering):
    space = enumerate_space(n, m, ordering)
    assert space.labels == tuple(point_label(pt) for pt in space.points)


def test_enumerate_space_sizes():
    for n, m in [(2, 5), (2, 8), (2, 15), (3, 3), (3, 6), (4, 2), (4, 3)]:
        assert len(enumerate_space(n, m)) == theta(n, m)


@pytest.mark.parametrize(
    "n,m,ordering",
    [
        (2, 6, "lex"), (3, 4, "lex"), (3, 6, "lex"), (2, 12, "lex"), (3, 9, "lex"),
        # moduli with many divisors: one block of candidates per first entry d | m
        (2, 36, "lex"), (3, 12, "lex"), (4, 6, "lex"), (2, 72, "lex"), (3, 16, "lex"),
        (3, 4, "k-grouped"), (3, 8, "k-grouped"), (2, 9, "k-grouped"),
    ],
)
def test_positions_match_canonical_rep(n, m, ordering):
    space = enumerate_space(n, m, ordering)
    order = {pt: i for i, pt in enumerate(space.points)}
    assert space.coords.tolist() == [list(pt.coords) for pt in space.points]
    if ordering == "lex":
        rows = space.coords.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))
    tuples = list(itertools.product(range(m), repeat=n))
    primitive = [t for t in tuples if is_primitive(t, m)]
    expected = [space.position(canonical_rep(t, m)) for t in primitive]
    assert expected == [order[canonical_rep(t, m)] for t in primitive]
    assert space.positions(primitive).tolist() == expected
    # any representative of the point is accepted
    shifted = np.array(primitive) - m * np.arange(1, n + 1)
    assert space.positions(shifted).tolist() == expected
    for t in tuples:
        if not is_primitive(t, m):
            with pytest.raises(DomainError, match="not primitive"):
                space.positions([t])


def test_enumeration_budget():
    # the scan visits only tuples whose first nonzero entry divides m: at
    # (2, 3001) that is 3002 tuples, not the 9 million of Z_3001^2
    start = time.perf_counter()
    space = enumerate_space(2, 3001)
    assert time.perf_counter() - start < 2.0
    assert len(space) == 3002


def test_enumeration_walks_no_orbit(monkeypatch):
    # the scan decides points by their keys; the unit walk is left to
    # ProjectivePoint, which checks the enumerated rows once they are read
    calls = []
    real = projective._is_orbit_minimum
    monkeypatch.setattr(projective, "_is_orbit_minimum",
                        lambda *args: calls.append(args) or real(*args))
    enumerate_space(3, 36)
    enumerate_space(3, 8, "k-grouped")
    assert calls == []
    space = enumerate_space(3, 4)
    assert calls == []
    assert len(space.points) == len(calls) == 28


def test_positions_round_trip_on_2_16_points():
    # P_{16,2} has 2^16 - 1 points, past any 2-byte position
    wide = enumerate_space(16, 2, guardrail=1 << 16)
    assert wide.positions(wide.coords).tolist() == list(range(len(wide)))


@pytest.mark.parametrize("n, m", [(2, 12), (3, 4), (3, 6), (2, 9), (3, 8)])
def test_point_keys_agree_with_canonical_rep(n, m):
    # equal keys iff equal canonical representatives, on every primitive
    # tuple of Z_m^n, and a refusal on every other tuple
    tuples = list(itertools.product(range(m), repeat=n))
    primitive = [t for t in tuples if is_primitive(t, m)]
    keys = point_keys(primitive, m).tolist()
    reps = [canonical_rep(t, m).coords for t in primitive]
    assert len(set(zip(keys, reps))) == len(set(keys)) == len(set(reps)) == theta(n, m)
    for t in tuples:
        if not is_primitive(t, m):
            with pytest.raises(DomainError, match="not primitive"):
                point_keys([t], m)


def test_point_keys_are_exact_below_2_62():
    # m^2 is about 2^60 here: a key past 2^53 would be rounded in float64
    m = 999999937
    rows = [(1, m - 1), (m - 1, m - 2), (0, 5), (123456789, 987654321), (m - 7, 3)]
    expected = []
    for a, b in rows:
        inverse = pow(a if a else b, -1, m)
        expected.append(a * inverse % m * m + b * inverse % m)
    assert point_keys(rows, m).tolist() == expected
    # any unit multiple is the same point
    for lam in (2, m - 1, 10**6 + 3):
        assert point_keys([(lam * a % m, lam * b % m) for a, b in rows], m).tolist() == expected


def test_point_keys_refuse_m_to_the_n_from_2_62():
    # 1664511 is the least m with m^3 >= 2^62
    assert 1664510**3 < 1 << 62 <= 1664511**3
    key = int(point_keys([(0, 0, 1)], 1664510)[0])
    assert 0 <= key < 1664510**3
    assert point_keys([(0, 0, 1664509)], 1664510).tolist() == [key]
    for m, n in ((1664511, 3), (1 << 31, 2), (2, 62)):
        with pytest.raises(DomainError, match="2\\^62"):
            point_keys([(0,) * (n - 1) + (1,)], m)


def test_positions_refuse_a_point_the_space_does_not_hold():
    # a space built from every other point of P_{3,4}
    full = enumerate_space(3, 4)
    half = ProjectiveSpace(3, full.m, "lex", full.coords[::2])
    assert half.positions(full.coords[::2]).tolist() == list(range(len(half)))
    # (0, 3, 0) is the point 010, position 1 of the full space
    with pytest.raises(DomainError, match=r"\(0, 3, 0\) is not a point of P_\{3,4\}"):
        half.positions(full.coords[:2] * 3)
    with pytest.raises(DomainError, match="not primitive"):
        half.positions([[0, 2, 2]])


def test_positions_budget():
    # looking up every point of P_{2,4999} sorts its 5000 keys once and
    # builds nothing of the size of Z_4999^2
    space = enumerate_space(2, 4999)
    start = time.perf_counter()
    found = space.positions(space.coords)
    assert time.perf_counter() - start < 0.25
    assert found.tolist() == list(range(len(space)))


def test_position_rejects_foreign_points():
    space = enumerate_space(3, 4)
    assert canonical_rep((0, 0, 1), 4) in space
    for pt in (canonical_rep((0, 0, 1), 2), canonical_rep((0, 1), 4)):
        assert pt not in space
        with pytest.raises(DomainError, match="not a point"):
            space.position(pt)
    with pytest.raises(DomainError, match="coordinates"):
        space.positions([[0, 1]])


def test_positions_refuse_float_entries():
    # a float was truncated to the integer below it
    with pytest.raises(DomainError, match="integers"):
        enumerate_space(3, 4).positions([[0, 2.7, 1]])


def test_positions_refuse_string_entries():
    # digit strings were parsed as integers
    with pytest.raises(DomainError, match="integers"):
        enumerate_space(3, 4).positions([["0", "2", "1"]])


def test_positions_reduce_python_ints_before_the_int64_cast():
    # a representative of 021 past 2^63 overflowed the cast
    assert enumerate_space(3, 4).positions([[0, 2 + 4 * 10**20, 1]]).tolist() == [5]


def test_enumerate_space_guardrail():
    with pytest.raises(GuardrailError):
        enumerate_space(3, 4, guardrail=27)
    # env var override
    import os

    os.environ["ZMSPEC_GUARDRAIL"] = "5"
    try:
        with pytest.raises(GuardrailError):
            enumerate_space(3, 2)
    finally:
        del os.environ["ZMSPEC_GUARDRAIL"]


def test_enumerate_space_rejects_bad_orderings():
    with pytest.raises(DomainError):
        enumerate_space(3, 4, "fancy")
    with pytest.raises(DomainError):
        enumerate_space(3, 6, "k-grouped")  # composite modulus
    with pytest.raises(DomainError):
        enumerate_space(3, 5, "k-grouped")  # e = 1


def test_neighborhood_examples():
    space = enumerate_space(3, 2)
    u = canonical_rep((0, 0, 1), 2)
    nb = neighborhood(u, space)
    assert {pt.coords for pt in nb} == {(0, 1, 0), (1, 0, 0), (1, 1, 0)}
    assert len(nb) == theta(2, 2) == 3

    space22 = enumerate_space(2, 2)
    u11 = canonical_rep((1, 1), 2)
    assert [pt.coords for pt in neighborhood(u11, space22)] == [(1, 1)]

    space34 = enumerate_space(3, 4)
    for u in space34.points:
        assert len(neighborhood(u, space34)) == theta(2, 4) == 6


def test_neighborhood_rejects_foreign_points():
    space = enumerate_space(3, 2)
    with pytest.raises(DomainError):
        neighborhood(canonical_rep((0, 0, 1), 4), space)


def test_delta_map_examples():
    assert delta_map(canonical_rep((0, 2, 1), 4), 2, 2).coords == (0, 0, 1)
    assert delta_map(canonical_rep((2, 2, 1), 4), 2, 2).coords == (0, 0, 1)
    assert delta_map(canonical_rep((1, 0, 0), 4), 2, 2).coords == (1, 0, 0)
    with pytest.raises(DomainError):
        delta_map(canonical_rep((0, 0, 1), 2), 2, 1)


def test_fiber_examples():
    v = canonical_rep((0, 0, 1), 2)
    members = fiber(v, 2, 2, 3)
    assert [point_label(pt) for pt in members] == ["001", "021", "201", "221"]

    # (p, e, n) = (3, 2, 2): every fiber of P_{2,9} over P_{2,3} has 3 points
    base = enumerate_space(2, 3)
    for w in base.points:
        assert len(fiber(w, 3, 2, 2)) == 3

    assert len(fiber(canonical_rep((1, 1, 1), 2), 2, 2, 3)) == 4


def test_fibers_partition_the_space():
    base = enumerate_space(3, 2)
    space = enumerate_space(3, 4)
    collected = []
    for v in base.points:
        collected.extend(fiber(v, 2, 2, 3))
    assert sorted(pt.coords for pt in collected) == sorted(
        pt.coords for pt in space.points
    )


def test_rho_fiber_size():
    v = canonical_rep((0, 0, 1), 2)
    assert rho_fiber_size(v, 2, 2, 3) == 8 == 2**3 * euler_phi(2)

    w = canonical_rep((0, 1), 3)
    assert rho_fiber_size(w, 3, 2, 2) == 18 == 3**2 * euler_phi(3)

    # each class contains phi(p^e) primitive tuples
    assert len(fiber(v, 2, 2, 3)) * euler_phi(4) == rho_fiber_size(v, 2, 2, 3)


def _classes(n, p, e):
    """The K-partition of P_{n,p^e}: the l = p^(n-1) row slices of the
    k-grouped space, as tuples of points."""
    points = enumerate_space(n, p**e, "k-grouped").points
    size = theta(n, p ** (e - 1))
    return [points[h * size:(h + 1) * size] for h in range(p ** (n - 1))]


def test_k_partition_matches_worked_example():
    rows = [[point_label(pt) for pt in cls] for cls in _classes(3, 2, 2)]
    assert len(rows) == 4
    assert rows[0] == ["001", "010", "011", "100", "101", "110", "111"]
    assert rows[1] == ["021", "012", "013", "102", "103", "112", "113"]
    assert rows[2] == ["201", "210", "211", "120", "121", "130", "131"]
    assert rows[3] == ["221", "212", "213", "122", "123", "132", "133"]


def test_k_partition_properties():
    for p, e, n in [(2, 2, 3), (3, 2, 2), (2, 3, 2)]:
        classes = _classes(n, p, e)
        assert len(classes) == p ** (n - 1)
        all_pts = [pt for cls in classes for pt in cls]
        assert len(all_pts) == len(set(all_pts)) == theta(n, p**e)
        # every class meets every fiber exactly once
        for cls in classes:
            assert len(cls) == theta(n, p ** (e - 1))
            images = [delta_map(pt, p, e) for pt in cls]
            assert len(set(images)) == len(images)


@pytest.mark.parametrize("n,p,e", [(2, 2, 3), (2, 3, 3), (3, 2, 2), (2, 2, 2)])
def test_k_partition_matches_delta_map(n, p, e):
    # oracle: fibers collected point by point through delta_map, each in
    # lex order; K_h takes the h-th member of every fiber, in the lex
    # order of the base points
    fibers = {v: [] for v in enumerate_space(n, p ** (e - 1)).points}
    for pt in enumerate_space(n, p**e).points:
        fibers[delta_map(pt, p, e)].append(pt)
    classes = list(zip(*fibers.values()))
    assert _classes(n, p, e) == classes
    grouped = enumerate_space(n, p**e, "k-grouped")
    assert grouped.points == tuple(pt for cls in classes for pt in cls)
    assert [grouped.position(pt) for pt in grouped.points] == list(range(len(grouped)))


def test_reprs_name_the_space_not_its_points():
    # the points are built from the coordinates only when read, and are in
    # no repr, so a failing assertion or a log line stays short
    space = enumerate_space(3, 32)
    assert repr(space) == (
        "ProjectiveSpace(n=3, m=Modulus(value=32, factors=((2, 5),)), ordering='lex')"
    )
    assert "points" not in vars(space)
    assert space.points[5].coords == tuple(space.coords[5].tolist())
    assert "points" in vars(space)


def test_k_partition_3_2_2():
    classes = _classes(2, 3, 2)
    assert len(classes) == 3
    assert all(len(cls) == 4 for cls in classes)
    assert theta(2, 9) == 12


def test_k_partition_rejects_wrong_fiber_sizes(monkeypatch, capsys):
    # a reduction map that sends every point to base point 0 empties
    # every other fiber; the guard is a DomainError, exit 2 through the CLI
    from zmspec import cli, projective

    monkeypatch.setattr(
        projective.ProjectiveSpace,
        "positions",
        lambda self, rows: np.zeros(len(rows), dtype=np.int64),
    )
    with pytest.raises(DomainError, match="fiber over base point"):
        enumerate_space(3, 4, "k-grouped")
    argv = ["matrix", "-n", "3", "-m", "4", "--ordering", "k-grouped"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "fiber over base point" in capsys.readouterr().err


def test_orbit_sizes_equal_totient():
    for n, m in [(3, 4), (2, 6), (2, 9), (3, 6)]:
        phi = euler_phi(m)
        for pt in enumerate_space(n, m).points:
            assert orbit_size(pt) == phi


def test_points_to_csv():
    space = enumerate_space(2, 2)
    text = points_to_csv(space)
    assert text.splitlines() == ["index,c1,c2", "0,0,1", "1,1,0", "2,1,1"]


def test_point_label_formats():
    assert point_label(canonical_rep((0, 2, 1), 4)) == "021"
    assert point_label(canonical_rep((0, 1), 12)) == "0,1"
