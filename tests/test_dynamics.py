import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from preper.dynamics import (
    GraphShape,
    NotQuadraticError,
    OrbitClass,
    QuadMap,
    _shape_of_edges,
    admissible_shapes,
    c_values_up_to_height,
    graph_shape,
    normalize_quadratic,
    orbit_classify,
    preper_points,
    scan,
)
from preper.exactmath import Poly
from oracles import brute_orbit_kind, brute_preperiodic_set, tortoise_shape_code

F = Fraction


def conjugated_normal_form(a, b, c0):
    """ell(f(ell^-1(z))) computed symbolically for ell(z) = a z + b/2."""
    a, b, c0 = F(a), F(b), F(c0)
    ell_inv = Poly((F(-b, 2) / a, 1 / a))
    f = Poly((c0, b, a))
    inner = f.compose(ell_inv)
    return inner * a + F(b, 2)


def test_normalize_quadratic_examples():
    c, (la, lb) = normalize_quadratic(F(1), F(0), F(7))
    assert c == 7 and (la, lb) == (1, 0)
    assert normalize_quadratic(F(2), F(2), F(0))[0] == 0
    assert normalize_quadratic(F(1), F(-2), F(0))[0] == -2
    with pytest.raises(NotQuadraticError):
        normalize_quadratic(F(0), F(1), F(1))


def test_normalize_quadratic_symbolic_conjugacy():
    rng = random.Random(11)
    for _ in range(50):
        a = F(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 5))
        b = F(rng.randint(-6, 6), rng.randint(1, 5))
        c0 = F(rng.randint(-6, 6), rng.randint(1, 5))
        c, _ = normalize_quadratic(a, b, c0)
        assert conjugated_normal_form(a, b, c0) == Poly((c, 0, 1))


def test_orbit_classify_anchor_examples():
    assert orbit_classify(QuadMap(F(-29, 16)), F(3, 4)) == OrbitClass.preperiodic(3, 2)
    assert orbit_classify(QuadMap(F(0)), F(0)) == OrbitClass.periodic(1)
    assert orbit_classify(QuadMap(F(-1)), F(1)) == OrbitClass.preperiodic(2, 1)
    assert orbit_classify(QuadMap(F(1, 3)), F(0)).is_divergent


def test_orbit_of_3_quarters_prefix():
    f = QuadMap(F(-29, 16))
    orbit = [F(3, 4)]
    for _ in range(4):
        orbit.append(f(orbit[-1]))
    assert orbit == [F(3, 4), F(-5, 4), F(-1, 4), F(-7, 4), F(5, 4)]


def assert_matches_brute(got: OrbitClass, c, x):
    brute = brute_orbit_kind(c, x)
    if brute == "divergent":
        assert got.is_divergent, (c, x)
    elif brute[0] == "periodic":
        assert got == OrbitClass.periodic(brute[1]), (c, x)
    else:
        assert got == OrbitClass.preperiodic(brute[1], brute[2]), (c, x)


def test_orbit_classify_matches_brute_iteration():
    rng = random.Random(12)
    for _ in range(150):
        c = F(rng.randint(-40, 10), rng.choice([1, 1, 4, 9, 16]))
        x = F(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6]))
        assert_matches_brute(orbit_classify(QuadMap(c), x), c, x)


# c = u/d^2 of small height: every square denominator up to 36, and the
# non-square ones that arise when gcd(u, d) > 1 reduces the fraction
small_c = st.builds(lambda u, d: F(u, d * d), st.integers(-200, 200), st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(c=small_c)
def test_preper_points_matches_oracles_on_random_c(c):
    g = preper_points(QuadMap(c))
    assert g.vertices == brute_preperiodic_set(c)
    for v, kind in g.orbit_types().items():
        assert_matches_brute(kind, c, v)


@settings(max_examples=80, deadline=None)
@given(c=small_c, xs=st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 6)),
                              min_size=1, max_size=12))
def test_orbit_classify_with_shared_types_matches_brute(c, xs):
    f = QuadMap(c)
    types: dict = {}
    for x in xs:
        assert_matches_brute(orbit_classify(f, x, types), c, x)


def test_preper_points_c_29_16():
    g = preper_points(QuadMap(F(-29, 16)))
    assert g.vertices == {F(k, 4) for k in (-7, -5, -3, -1, 1, 3, 5, 7)}
    types = g.orbit_types()
    assert {v for v, t in types.items() if t == OrbitClass.periodic(3)} == \
        {F(-1, 4), F(-7, 4), F(5, 4)}
    assert {v for v, t in types.items() if t == OrbitClass.preperiodic(3, 1)} == \
        {F(1, 4), F(7, 4), F(-5, 4)}
    assert {v for v, t in types.items() if t == OrbitClass.preperiodic(3, 2)} == \
        {F(3, 4), F(-3, 4)}
    assert g.size_with_infinity() == 9


@pytest.mark.parametrize("c, expected", [
    (F(0), {F(0), F(1), F(-1)}),
    (F(1, 4), {F(1, 2), F(-1, 2)}),
    (F(1, 3), set()),
    (F(1), set()),
])
def test_preper_points_small_cases(c, expected):
    assert preper_points(QuadMap(c)).vertices == expected


def test_preper_points_matches_brute_enumeration():
    rng = random.Random(13)
    cs = [F(rng.randint(-30, 5), rng.choice([1, 4, 9, 16, 25])) for _ in range(40)]
    cs += [F(-29, 16), F(-2), F(-1), F(0), F(-21, 16), F(-37, 9)]
    for c in cs:
        assert preper_points(QuadMap(c)).vertices == brute_preperiodic_set(c)


def test_preper_points_closure_and_soundness():
    for c in (F(-29, 16), F(-21, 16), F(-10, 9)):
        g = preper_points(QuadMap(c))
        f = QuadMap(c)
        for v in g.vertices:
            assert g.edges[v] == f(v)
            assert g.edges[v] in g.vertices
            assert not orbit_classify(f, v).is_divergent


def test_shape_empty_graph():
    assert _shape_of_edges({}) == GraphShape("")


def test_shape_invariant_under_relabeling():
    rng = random.Random(14)
    base = {0: 1, 1: 0, 2: 0, 3: 2, 4: 2}  # 2-cycle with a small tree
    code = _shape_of_edges(base)
    for _ in range(30):
        labels = list("abcdefghij")
        rng.shuffle(labels)
        relabeled = {labels[v]: labels[w] for v, w in base.items()}
        assert _shape_of_edges(relabeled) == code
    g = preper_points(QuadMap(F(-1)))
    perm = {F(1): "x", F(0): "y", F(-1): "z"}
    relabeled = {perm[v]: perm[w] for v, w in g.edges.items()}
    assert _shape_of_edges(relabeled) == graph_shape(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
def test_shape_matches_tortoise_oracle_on_random_graphs(images):
    edges = dict(enumerate(images))
    assert _shape_of_edges(edges).code == tortoise_shape_code(edges)


def test_shape_distinguishes_rotation_direction():
    # a plain tail and a depth-2 tail on adjacent versus opposite cycle
    # vertices of a directed 3-cycle are not rotation-equivalent
    a = {0: 1, 1: 2, 2: 0, 3: 0, 4: 1, 5: 4}
    b = {0: 1, 1: 2, 2: 0, 3: 0, 4: 2, 5: 4}
    assert _shape_of_edges(a) != _shape_of_edges(b)
    # but each is invariant under rotating its own labels
    a_rot = {1: 2, 2: 0, 0: 1, 3: 1, 4: 2, 5: 4}
    assert _shape_of_edges({**a_rot}) == _shape_of_edges(
        {0: 1, 1: 2, 2: 0, 3: 1, 4: 2, 5: 4})


def test_admissible_catalog_contents():
    cat = admissible_shapes()
    assert len(cat) == 12
    assert GraphShape("") in cat
    assert graph_shape(preper_points(QuadMap(F(-29, 16)))) in cat


def test_catalog_is_realized_by_explicit_values():
    cs = [F(1), F(1, 4), F(0), F(-3, 4), F(-2), F(-10, 9),
          F(-1), F(-7, 4), F(-37, 9), F(-21, 16), F(-301, 144), F(-29, 16)]
    realized = {graph_shape(preper_points(QuadMap(c))) for c in cs}
    assert realized == admissible_shapes()


def test_scan_height50_observed_within_catalog():
    res = scan(50)
    cat = admissible_shapes()
    observed = set(res.census)
    assert observed <= cat
    # the generic 3-cycle shape needs |c| height 301 and is the only one missing
    generic3 = graph_shape(preper_points(QuadMap(F(-301, 144))))
    assert cat - observed == {generic3}
    assert res.out_of_catalog == [] and res.bound_violations == []


def test_scan_census_basics_and_determinism():
    res = scan(8)
    shape_m1 = graph_shape(preper_points(QuadMap(F(-1))))
    count, samples = res.census[shape_m1]
    assert count >= 1 and F(-1) in samples
    assert scan(8, jobs=3).census == res.census
    assert c_values_up_to_height(8)[:3] == [F(-8), F(-7), F(-6)]
    with pytest.raises(ValueError):
        scan(0)


def test_scan_worker_pool_matches_sequential():
    # enough parameters that the process pool really engages
    pooled = scan(20, jobs=4)
    sequential = scan(20, jobs=1)
    assert pooled.census == sequential.census
    assert pooled.out_of_catalog == sequential.out_of_catalog


def test_scan_census_totals_match_parameter_count():
    res = scan(15)
    total = sum(count for count, _ in res.census.values())
    assert total == len(c_values_up_to_height(15))


def test_scan_tiny_height_sees_the_2_cycle_graph():
    res = scan(2)
    shape = graph_shape(preper_points(QuadMap(F(-1))))
    count, samples = res.census[shape]
    assert count >= 1 and F(-1) in samples


def test_five_unique_graphs_appear_once_from_height_29():
    res = scan(29)
    for c in (F(-1), F(1, 4), F(0), F(-2), F(-29, 16)):
        shape = graph_shape(preper_points(QuadMap(c)))
        count, samples = res.census[shape]
        assert count == 1 and samples == [c], c


def test_wrong_denominator_is_divergent():
    f = QuadMap(F(-29, 16))
    for x in (F(1, 2), F(1, 8), F(3)):
        assert orbit_classify(f, x).is_divergent


def test_scan_size_bound_probe():
    res = scan(40)
    assert res.bound_violations == []
    for shape, (count, samples) in res.census.items():
        for c in samples:
            assert preper_points(QuadMap(c)).size_with_infinity() <= 9


def test_mirror_count_rule():
    # the number of depth-1 points equals the number of cycle points of the
    # same period, one less exactly for (c, m) in {(-1, 2), (0, 1)}
    for c in c_values_up_to_height(25):
        g = preper_points(QuadMap(c))
        types = g.orbit_types().values()
        for m in (1, 2, 3):
            periodic = sum(1 for t in types if t == OrbitClass.periodic(m))
            depth1 = sum(1 for t in types if t == OrbitClass.preperiodic(m, 1))
            expected = periodic - (1 if (c, m) in ((F(-1), 2), (F(0), 1)) else 0)
            if periodic:
                assert depth1 == expected, (c, m)
