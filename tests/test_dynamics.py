import copy
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

import preper
from preper import dynamics
from preper.dynamics import (
    BudgetError,
    PointTable,
    PreperGraph,
    QuadMap,
    SCAN_BUDGET,
    ScanResult,
    _rank_image,
    _shape_of_image,
    admissible_shapes,
    c_values_up_to_height,
    graph_shape,
    orbit_classify,
    preper_points,
    scan,
)
from preper.curves import (
    BIRATIONAL_PAIRS,
    C1_32,
    E40,
    SEARCH_BUDGET,
    BirationalPair,
    CurveModel,
    CurvePoint,
    rational_points_bounded,
)
from preper.exactmath import BiPoly, CurveFunctionField, FpPoly, FqElem, Poly, RationalMap
from preper.exactmath.polynomial import _DensePoly
from preper.families import FamilyPoint, make_family_point
from preper.ffjac import (
    KNOWN_POINTS,
    MonicModel,
    MumfordDivisor,
    OddModel,
    count_points,
    divisor_from_points,
    divisor_identity,
    odd_model_transform,
)
from preper.padic import PadicSeries
from preper.report import CheckResult, Report
from preper.values import Value
from oracles import (
    box_preper_graph,
    brute_orbit_kind,
    brute_preperiodic_set,
    tortoise_shape_code,
)

F = Fraction


def test_orbit_classify_anchor_examples():
    # an orbit type is the pair (period, tail) of the one walk, tail 0 for
    # a periodic point, and None for a divergent orbit
    assert orbit_classify(QuadMap(F(-29, 16)), F(3, 4)) == (3, 2)
    assert orbit_classify(QuadMap(F(0)), F(0)) == (1, 0)
    assert orbit_classify(QuadMap(F(-1)), F(1)) == (2, 1)
    assert orbit_classify(QuadMap(F(1, 3)), F(0)) is None
    # no class wraps the pair: the package exports these names only, and
    # the value classes of dynamics are these
    assert sorted(preper.__all__) == [
        "FamilyPoint", "PreperGraph", "QuadMap", "admissible_shapes", "graph_shape",
        "make_family_point", "orbit_classify", "preper_points", "scan", "validate_family"]
    assert {name for name, obj in vars(dynamics).items()
            if isinstance(obj, type) and issubclass(obj, Value)} == \
        {"Value", "QuadMap", "PreperGraph", "ScanResult"}


def test_orbit_of_3_quarters_prefix():
    f = QuadMap(F(-29, 16))
    orbit = [F(3, 4)]
    for _ in range(4):
        orbit.append(f(orbit[-1]))
    assert orbit == [F(3, 4), F(-5, 4), F(-1, 4), F(-7, 4), F(5, 4)]


def test_orbit_classify_matches_brute_iteration():
    rng = random.Random(12)
    for _ in range(150):
        c = F(rng.randint(-40, 10), rng.choice([1, 1, 4, 9, 16]))
        x = F(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6]))
        assert orbit_classify(QuadMap(c), x) == brute_orbit_kind(c, x), (c, x)


# c = u/d^2 of small height: every square denominator up to 36, and the
# non-square ones that arise when gcd(u, d) > 1 reduces the fraction
small_c = st.builds(lambda u, d: F(u, d * d), st.integers(-200, 200), st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(c=small_c)
def test_preper_points_matches_oracles_on_random_c(c):
    g = preper_points(QuadMap(c))
    assert g.vertices == brute_preperiodic_set(c)
    types = g.orbit_types()
    assert types.keys() == g.vertices
    for v, kind in types.items():
        assert kind == brute_orbit_kind(c, v), (c, v)
    # graph_shape ranks the numerators of the edges; the oracle codes the
    # Fraction edges as they are
    assert graph_shape(g) == tortoise_shape_code(g.edges)


@settings(max_examples=80, deadline=None)
@given(c=small_c, xs=st.lists(st.builds(F, st.integers(-30, 30), st.integers(1, 6)),
                              min_size=1, max_size=12))
def test_orbit_classify_with_shared_types_matches_brute(c, xs):
    f = QuadMap(c)
    types: dict = {}
    for x in xs:
        assert orbit_classify(f, x, types) == brute_orbit_kind(c, x), (c, x)


def test_preper_points_c_29_16():
    g = preper_points(QuadMap(F(-29, 16)))
    assert g.vertices == {F(k, 4) for k in (-7, -5, -3, -1, 1, 3, 5, 7)}
    types = g.orbit_types()
    assert all(type(t) is tuple and [type(n) for n in t] == [int, int] for t in types.values())
    assert {v for v, t in types.items() if t == (3, 0)} == {F(-1, 4), F(-7, 4), F(5, 4)}
    assert {v for v, t in types.items() if t == (3, 1)} == {F(1, 4), F(7, 4), F(-5, 4)}
    assert {v for v, t in types.items() if t == (3, 2)} == {F(3, 4), F(-3, 4)}
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
            assert orbit_classify(f, v) is not None


# c = u/d^2 with boxes of thousands of numerators, d large against sqrt|u|
# included; a u sharing a factor with d reduces to another denominator
wide_c = st.builds(lambda u, d: F(u, d * d), st.integers(-10**6, 10**6), st.integers(1, 60))


@settings(max_examples=60, deadline=None)
@given(c=wide_c)
def test_preper_points_matches_slack_box_oracle_on_vertices_and_edges(c):
    g = preper_points(QuadMap(c))
    vertices, edges = box_preper_graph(c)
    assert g.vertices == vertices
    assert g.edges == edges


# c = -29/16 walks -7 -> 5 -> -1 -> -7 first, so -5 and -1 are recorded before
# their turn; -21/16 and -2 record fixed points and tails the same way
@example(c=F(-29, 16))
@example(c=F(-21, 16))
@example(c=F(-2))
@settings(max_examples=60, deadline=None)
@given(c=wide_c)
def test_preper_points_classifies_each_unrecorded_numerator_once(c):
    real, calls, d = dynamics.orbit_classify, [], isqrt(c.denominator)

    def spy(f, x, types=None):
        assert x.denominator == d and gcd(x.numerator, d) == 1
        assert x.numerator not in types
        calls.append(x.numerator)
        return real(f, x, types)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "orbit_classify", spy)
        g = preper_points(QuadMap(c))
    assert g.vertices == box_preper_graph(c)[0]
    assert len(calls) == len(set(calls))


def box_size(c) -> int:
    # the numerators preper_points counts for c, read from the refusal it
    # gives under a budget of 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BOX_BUDGET", 0)
        with pytest.raises(BudgetError, match=r"holds \d+ numerators") as err:
            preper_points(QuadMap(c))
    return int(re.search(r"holds (\d+) numerators", str(err.value)).group(1))


@settings(max_examples=200, deadline=None)
@given(ud=st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60)).filter(
    lambda ud: gcd(*ud) == 1))
def test_candidate_box_is_the_exact_escape_bound(ud):
    u, d = ud
    size = box_size(F(u, d * d))
    K = size // 2
    assert size == 2 * K + 1
    assert K * (K - d) <= abs(u) < (K + 1) * (K + 1 - d)


@pytest.mark.parametrize("c", [F(-29, 16), F(0), F(10**6 + 1, 4), F(-98_765_431, 9679**2)])
def test_box_budget_guards_the_exact_box(monkeypatch, c):
    size = box_size(c)
    monkeypatch.setattr(dynamics, "BOX_BUDGET", size - 1)
    with pytest.raises(BudgetError, match=f"holds {size} numerators"):
        preper_points(QuadMap(c))
    monkeypatch.setattr(dynamics, "BOX_BUDGET", size)
    assert preper_points(QuadMap(c)).vertices == box_preper_graph(c)[0]


@pytest.mark.parametrize("recorded, message", [
    # 1/4 -> -7/4, which was never recorded
    ([1], "image -7/4 of vertex 1/4"),
    # 4 does not divide 2**2 - 29, so 1/2 -> -25/16 is no candidate, although
    # the floor of (2**2 - 29)/4 is the recorded numerator -7
    ([2, -7], "image -25/16 of vertex 1/2"),
])
def test_vertex_closure_failure_names_the_escaped_image(monkeypatch, recorded, message):
    # an orbit walk that records a vertex without its image fails with an
    # error that python -O keeps, not with a bare KeyError
    def record(f, x, types):
        types.update((k, (1, 0)) for k in recorded)
        return None

    monkeypatch.setattr(dynamics, "orbit_classify", record)
    with pytest.raises(RuntimeError, match=re.escape(message + " escaped the vertex set")):
        preper_points(QuadMap(F(-29, 16)))


@pytest.mark.parametrize("c", [F(-29, 16), F(5, 16), F(-21, 16)])
def test_point_table_holds_each_coprime_box_point_the_graph_reads(c):
    # the graph's vertices are first-step survivors of the coprime box:
    # all eight odd numerators for -29/16 and -21/16, none for 5/16; the
    # table hands out their nonnegative half, the graph reads no table
    f, points, K = QuadMap(c), PointTable(4), box_size(c) // 2
    survivors = [k for k in range(-K, K + 1) if k % 2 and f.step(k) is not None]
    assert len(survivors) == (0 if c == F(5, 16) else 8)
    assert points.candidates(f.u, K) == [k for k in survivors if k >= 0]
    # the table groups every numerator 0 <= k <= K by k**2 mod 4
    assert points.reach == K
    assert sorted(k for _, roots in points.groups.values() for k in roots) == list(range(K + 1))
    g = preper_points(f)
    assert {v.numerator for v in g.vertices} <= set(survivors)
    assert (g.vertices, g.edges) == box_preper_graph(c)


@st.composite
def band_run(draw):
    """A denominator d, primes, prime powers and composites alike, and
    numerators u coprime to d with boxes of up to 270 numerators, shuffled
    with repeats so that the box bound K both shrinks and grows."""
    d = draw(st.one_of(st.integers(1, 60), st.sampled_from([8, 9, 25, 27, 32, 49])))
    us = draw(st.lists(st.integers(-10**4, 10**4).filter(lambda u: gcd(u, d) == 1),
                       min_size=1, max_size=8, unique=True))
    repeats = draw(st.lists(st.sampled_from(us), max_size=len(us)))
    return d, draw(st.permutations(us + repeats))


# d = 1, where k = 0 survives without a twin; d = 4 with K = 7, 5 and 7 again
@example(run=(1, [-2, 0, 3, -2]))
@example(run=(4, [-29, 5, -21, -29]))
@settings(max_examples=150, deadline=None)
@given(run=band_run())
def test_point_table_candidates_are_the_first_step_survivors_of_the_box(run):
    d, us = run
    points, real = PointTable(d), dynamics.orbit_classify
    for u in us:
        c = F(u, d * d)
        f, K = QuadMap(c), box_size(c) // 2
        coprime = [k for k in range(-K, K + 1) if gcd(k, d) == 1]
        survivors = [k for k in coprime if f.step(k) is not None]
        # the nonnegative half; -k survives exactly when k does
        assert points.candidates(u, K) == [k for k in survivors if k >= 0]
        assert sorted(-k for k in survivors) == survivors
        calls = []

        def spy(f, x, types=None):
            calls.append(x.numerator)
            return real(f, x, types)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "orbit_classify", spy)
            g = preper_points(f)
        assert set(calls) <= set(coprime)
        # the graph leans neither on the table nor on the mirror: every
        # coprime box numerator that is no vertex gets a walk of its own
        assert {k for k in coprime if F(k, d) not in g.vertices} <= set(calls)
        assert {v.numerator for v in g.vertices} <= set(survivors)
        assert (g.vertices, g.edges) == box_preper_graph(c)


def test_scan_chunk_matches_graphs_built_without_a_table(monkeypatch):
    # the verdict on each c alone: a census of one c is its code, counted
    # once with c as its sample, and c again wherever it is out of the
    # catalog or over the size bound
    pairs = list(c_values_up_to_height(100))
    nonempty = []
    for u, v in pairs:
        c = F(u, v * v)
        g = preper_points(QuadMap(c))
        code, size = graph_shape(g), g.size_with_infinity()
        if code:
            nonempty.append((c, code))
        assert dynamics._scan_chunk([(u, v)]) == (
            {code: (1, [c])},
            [] if code in admissible_shapes() else [(c, code)],
            [(c, size)] if size > 9 else [])
    # a catalog of the empty graph alone puts every nonempty c outside it,
    # in the order of the pairs
    monkeypatch.setattr(dynamics, "admissible_shapes", lambda: frozenset([""]))
    assert dynamics._scan_chunk(pairs)[1] == nonempty


def test_scan_cross_check_does_not_read_the_point_table(monkeypatch):
    # a table that loses the survivor k = 0 hides the fixed point 0 of
    # c = 0 (and the tail point 0 of c = -2) from the integer census; the
    # samples are rebuilt from the whole coprime box, so the census's
    # shape disagrees with the rebuilt graph instead of agreeing with it
    real = PointTable.candidates
    monkeypatch.setattr(PointTable, "candidates",
                        lambda self, u, K: [k for k in real(self, u, K) if k])
    with pytest.raises(RuntimeError, match="the census found shape"):
        scan(2)


def test_scan_canonicalizes_each_distinct_graph_once_per_call(monkeypatch):
    # a scan codes each distinct rank image of its nonempty graphs once
    # (the vertices sorted by numerator, each image replaced by its rank),
    # and each cross-checked sample once more through graph_shape; the
    # memo lives for one call, so a second scan makes as many calls again
    images = set()
    for u, v in c_values_up_to_height(300):
        g = preper_points(QuadMap(F(u, v * v)))
        order = sorted(g.vertices)
        if order:
            images.add(tuple(order.index(g.edges[x]) for x in order))
    admissible_shapes()  # the catalog's own codes are made once per process
    calls = []
    real = dynamics._shape_of_image

    def spy(image):
        calls.append(image)
        return real(image)

    monkeypatch.setattr(dynamics, "_shape_of_image", spy)
    result = scan(300)
    checked = sum(len(samples) for code, (_n, samples) in result.census.items() if code)
    assert len(calls) == len(images) + checked
    first = len(calls)
    assert scan(300) == result
    assert len(calls) == 2 * first


def test_a_scan_keeps_one_live_point_table_per_run_of_its_denominator(monkeypatch):
    # _scan_chunk replaces its one PointTable whenever v changes: the
    # ordered pairs of height 300 build one table per denominator, and a
    # stream whose denominator blocks are each split in two, every second
    # half before every first half, builds one per run, with the same
    # count for every code
    pairs = list(c_values_up_to_height(300))
    blocks: dict[int, list] = {}
    for u, v in pairs:
        blocks.setdefault(v, []).append((u, v))
    halves = [(block[len(block) // 2:], block[:len(block) // 2]) for block in blocks.values()]
    split = [pair for i in (0, 1) for two in halves for pair in two[i]]
    made = []
    real = PointTable.__init__

    def spy(self, d):
        made.append(d)
        real(self, d)

    monkeypatch.setattr(PointTable, "__init__", spy)
    ordered = dynamics._scan_chunk(pairs)
    assert made == list(range(1, 18))
    made.clear()
    regrouped = dynamics._scan_chunk(split)
    assert made == 2 * list(range(1, 18))
    assert {code: n for code, (n, _samples) in regrouped[0].items()} == \
        {code: n for code, (n, _samples) in ordered[0].items()}
    assert regrouped[1:] == ordered[1:] == ([], [])


def test_scan_chunk_of_the_nonempty_c_is_the_census_without_the_empty_graph():
    # with every empty c removed, by the box oracle, the live table meets
    # gaps in each run of u and still finds every survivor: the census is
    # the scan's, counts and samples, less its "" entry
    pairs = [(u, v) for u, v in c_values_up_to_height(300) if box_preper_graph(F(u, v * v))[0]]
    census = dict(scan(300).census)
    del census[""]
    assert dynamics._scan_chunk(pairs) == (census, [], [])


@st.composite
def scan_pairs(draw):
    """Pairs (u, v) in lowest terms, shuffled with repeats so that a
    table's box bound both shrinks and grows: v from 1 to 40 or with many
    prime factors, whose boxes hold many numerators sharing a prime with
    v, and u around the 1/4 exit 4u = v**2 as well as far below it."""
    v = draw(st.one_of(st.integers(1, 40), st.sampled_from([6, 30, 60, 210])))
    near_quarter = st.integers(-3, 3).map(lambda t: v * v // 4 + t)
    us = draw(st.lists(st.one_of(st.integers(-5 * v * v - 300, 300), near_quarter).filter(
        lambda u: gcd(u, v) == 1), min_size=1, max_size=8, unique=True))
    repeats = draw(st.lists(st.sampled_from(us), max_size=len(us)))
    return [(u, v) for u in draw(st.permutations(us + repeats))]


# d = 1: c = 1 > 1/4 (twice), 0, -2 and -1
@example(pairs=[(1, 1), (0, 1), (-2, 1), (-1, 1), (1, 1)])
# c = 1/4 keeps its fixed point 1/2; u = v**2/4 + 1 for even v is just above
# 1/4; -29/16 and -21/16 reach cycles, 3/16 does not
@example(pairs=[(1, 2), (5, 4), (17, 8), (37, 12), (-29, 4), (-21, 4), (3, 4), (-29, 4)])
# v = 30 and 210, where most box numerators share a prime with v: 71 of the
# 97 of -899/900; 161/900 has the fixed points 7/30 and 23/30, and -1/44100
# has survivors but no cycle
@example(pairs=[(-899, 30), (161, 30), (-29, 30), (161, 30), (-1, 210)])
@settings(max_examples=200, deadline=None)
@given(pairs=scan_pairs())
def test_scan_emptiness_verdict_matches_the_graph_and_the_box_oracle(pairs):
    # the graph is built without a table and by the box oracle; a c gets a
    # QuadMap and a preper_points call exactly when it is one of the first
    # three c of its code whose graph is not empty
    built, bounded = [], set()
    real_quad, real_preper, real_bound = dynamics.QuadMap, dynamics.preper_points, \
        dynamics._box_bound

    def quad(c):
        built.append(c)
        return real_quad(c)

    def preper(f):
        built.append(f)
        return real_preper(f)

    def bound(d, u):
        bounded.add((u, d))
        return real_bound(d, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "QuadMap", quad)
        mp.setattr(dynamics, "preper_points", preper)
        mp.setattr(dynamics, "_box_bound", bound)
        result = dynamics._scan_chunk(pairs)
    # a c > 1/4 is empty before its box is even bounded
    assert bounded == {(u, v) for u, v in pairs if 4 * u <= v * v}
    # the tally of the box oracle's codes: counts, the first three c of
    # each code in order, and the c out of the catalog or over the bound
    counts, samples, outside, violations, checked = {}, {}, [], [], []
    for u, v in pairs:
        c = F(u, v * v)
        g = preper_points(QuadMap(c))
        vertices, edges = box_preper_graph(c)
        assert (g.vertices, g.edges) == (vertices, edges)
        code, size = graph_shape(g), len(vertices) + 1
        counts[code] = counts.get(code, 0) + 1
        if counts[code] <= 3:
            samples.setdefault(code, []).append(c)
            if vertices:
                checked += [c, QuadMap(c)]
        if code not in admissible_shapes():
            outside.append((c, code))
        if size > 9:
            violations.append((c, size))
    assert result == ({code: (counts[code], samples[code]) for code in sorted(counts)},
                      outside, violations)
    assert list(result[0]) == sorted(counts)
    assert built == checked


@st.composite
def one_denominator_run(draw):
    """A denominator d and numerators u coprime to d, shuffled with repeats."""
    d = draw(st.integers(1, 12))
    us = draw(st.lists(st.integers(-300, 300).filter(lambda u: gcd(u, d) == 1),
                       min_size=1, max_size=8, unique=True))
    repeats = draw(st.lists(st.sampled_from(us), max_size=len(us)))
    return d, draw(st.permutations(us + repeats))


# d = 1 with c = 2 > 1/4, and d = 4 with 5/16 > 1/4 beside -29/16, each with repeats
@example(run=(1, [2, -2, 0, 2, -6, -2]))
@example(run=(4, [-29, 5, -21, -29, 1, 5]))
@settings(max_examples=60, deadline=None)
@given(run=one_denominator_run())
def test_one_point_table_serves_every_c_of_its_denominator(run):
    d, us = run
    points = PointTable(d)
    for u in us:
        c = F(u, d * d)
        f = QuadMap(c)
        g = preper_points(f)
        assert (g.vertices, g.edges) == box_preper_graph(c)
        K = box_size(c) // 2
        survivors = [k for k in range(-K, K + 1) if gcd(k, d) == 1 and f.step(k) is not None]
        assert points.candidates(u, K) == [k for k in survivors if k >= 0]
        assert {v.numerator for v in g.vertices} <= set(survivors)


def test_a_graph_without_a_table_keeps_no_point_per_numerator():
    """A graph reads no PointTable and drops each point k/d when its
    walk ends, so its memory does not grow with the box.  This pins the
    peak_rss_mb of the graph_tall benchmark, whose boxes reach 3 * 10**4
    numerators: holding one Fraction per coprime numerator for the whole
    call costs about 150 bytes each."""
    c = F(-10**8, 49)
    K = box_size(c) // 2
    assert K == 10_003
    tracemalloc.start()
    try:
        preper_points(QuadMap(c))
        untabled = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = {k: F(k, 7) for k in range(-K, K + 1) if k % 7}
        per_numerator = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 1 kB against about 2.5 MB for the 17,148 points of the box
    assert len(held) == 17_148
    assert untabled < 1_000_000 < per_numerator


def test_a_scan_keeps_no_record_per_c():
    """A scan tallies each c as it is made, so its memory holds its point
    tables and its census, not one value or record per c: holding the
    6,481 c of height 300 and their records peaks at about 1.1 MB traced,
    the tallied scan at about 0.15 MB."""
    tracemalloc.start()
    try:
        scan(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_a_scan_builds_a_map_and_a_graph_only_for_a_nonempty_graph(monkeypatch):
    """Of the 6,481 c of height 300, 350 have a nonempty graph, found and
    canonicalized on integers.  Only the first three c of each nonempty
    code, the samples the scan prints, become a QuadMap and go through
    preper_points, to cross-check the integer census; no c with the empty
    graph does."""
    checked, seen = [], {}
    for u, v in c_values_up_to_height(300):
        c = F(u, v * v)
        code = graph_shape(preper_points(QuadMap(c)))
        if code:
            seen[code] = seen.get(code, 0) + 1
            if seen[code] <= 3:
                checked.append(c)
    calls = {"QuadMap": [], "preper_points": []}
    real_quad, real_preper = dynamics.QuadMap, dynamics.preper_points

    def quad(c):
        calls["QuadMap"].append(c)
        return real_quad(c)

    def preper(f):
        calls["preper_points"].append(f.c)
        return real_preper(f)

    monkeypatch.setattr(dynamics, "QuadMap", quad)
    monkeypatch.setattr(dynamics, "preper_points", preper)
    res = scan(300)
    total = sum(count for count, _ in res.census.values())
    assert (total, total - res.census[""][0]) == (6481, 350)
    assert calls == {"QuadMap": checked, "preper_points": checked}
    assert sorted(checked) == sorted(c for code, (_, samples) in res.census.items()
                                     if code for c in samples)


@pytest.mark.parametrize("patch", ["code", "size"])
def test_a_scan_raises_when_a_sample_graph_disagrees_with_the_integer_census(monkeypatch,
                                                                             patch):
    # a wrong code or size from the rebuilt graph of a sample stops the
    # scan rather than letting the census and its samples disagree
    if patch == "code":
        monkeypatch.setattr(dynamics, "graph_shape", lambda g: "1:()")
    else:
        monkeypatch.setattr(PreperGraph, "size_with_infinity", lambda g: len(g.vertices) + 2)
    with pytest.raises(RuntimeError, match="the census found shape .* but its graph has"):
        scan(300)


def test_shape_empty_graph():
    assert _shape_of_image(_rank_image({})) == ""


def test_shape_invariant_under_relabeling():
    rng = random.Random(14)
    base = {0: 1, 1: 0, 2: 0, 3: 2, 4: 2}  # 2-cycle with a small tree
    code = _shape_of_image(_rank_image(base))
    for _ in range(30):
        labels = list("abcdefghij")
        rng.shuffle(labels)
        relabeled = {labels[v]: labels[w] for v, w in base.items()}
        assert _shape_of_image(_rank_image(relabeled)) == code
    g = preper_points(QuadMap(F(-1)))
    perm = {F(1): "x", F(0): "y", F(-1): "z"}
    relabeled = {perm[v]: perm[w] for v, w in g.edges.items()}
    assert _shape_of_image(_rank_image(relabeled)) == graph_shape(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
def test_shape_matches_tortoise_oracle_on_random_graphs(images):
    edges = dict(enumerate(images))
    assert _shape_of_image(_rank_image(edges)) == tortoise_shape_code(edges)
    assert _shape_of_image(images) == tortoise_shape_code(edges)


def _tree_size(tree) -> int:
    return sum(1 + _tree_size(child) for child in tree)


@st.composite
def structured_graphs(draw):
    """A functional graph of the parts that uniform random maps rarely
    make: components whose cycles of length 1 to 4 root trees drawn from a
    pool of one or two, so that tree codes tie under rotation, each
    repeated up to three times; trees up to depth 8; at most 24 vertices,
    inserted in a shuffled order."""

    def tree(depth: int, room: list[int]):
        # a rooted tree as the tuple of its children's trees, at most depth
        # levels and room[0] vertices below its root
        children = []
        for _ in range(draw(st.integers(0, 2)) if depth else 0):
            if not room[0]:
                break
            room[0] -= 1
            children.append(tree(depth - 1, room))
        return tuple(children)

    def hang(root: int, branches) -> None:
        # the vertices of the tree `branches` below root, mapped towards it
        for child in branches:
            v = len(edges)
            edges[v] = root
            hang(v, child)

    edges: dict[int, int] = {}
    room = 24
    while room and (not edges or draw(st.booleans())):
        m = draw(st.integers(1, min(4, room)))
        pool = [tree(8, [(room - m) // m]) for _ in range(draw(st.integers(1, 2)))]
        trees = [draw(st.sampled_from(pool)) for _ in range(m)]
        size = m + sum(map(_tree_size, trees))
        for _ in range(draw(st.integers(1, min(3, room // size)))):
            cycle = list(range(len(edges), len(edges) + m))
            for i, v in enumerate(cycle):
                edges[v] = cycle[(i + 1) % m]
            for v, t in zip(cycle, trees):
                hang(v, t)
            room -= size
    return {v: edges[v] for v in draw(st.permutations(list(edges)))}


@settings(max_examples=300, deadline=None)
@given(structured_graphs())
def test_shape_matches_tortoise_oracle_on_structured_graphs(edges):
    assert _shape_of_image(_rank_image(edges)) == tortoise_shape_code(edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.permutations(range(n)))))
def test_shape_ignores_insertion_order_and_label_type(graph):
    # the code depends on neither the order the vertices come in nor how
    # their labels sort: str labels sort "10" before "2", Fractions by value
    images, perm = graph
    code = _shape_of_image(_rank_image(dict(enumerate(images))))
    assert _shape_of_image(_rank_image({v: images[v] for v in perm})) == code
    assert _shape_of_image(_rank_image({str(perm[v]): str(perm[images[v]])
                                        for v in perm})) == code
    assert _shape_of_image(_rank_image({F(perm[v] - 6, 7): F(perm[images[v]] - 6, 7)
                                        for v in perm})) == code
    # the scan's memo key, an integer relabelling ranked back onto 0..n-1
    assert _shape_of_image(_rank_image({3 * perm[v] - 5: 3 * perm[images[v]] - 5
                                        for v in perm})) == code


def test_shape_distinguishes_rotation_direction():
    # a plain tail and a depth-2 tail on adjacent versus opposite cycle
    # vertices of a directed 3-cycle are not rotation-equivalent
    a = {0: 1, 1: 2, 2: 0, 3: 0, 4: 1, 5: 4}
    b = {0: 1, 1: 2, 2: 0, 3: 0, 4: 2, 5: 4}
    assert _shape_of_image(_rank_image(a)) != _shape_of_image(_rank_image(b))
    # but each is invariant under rotating its own labels
    a_rot = {1: 2, 2: 0, 0: 1, 3: 1, 4: 2, 5: 4}
    assert _shape_of_image(_rank_image({**a_rot})) == _shape_of_image(_rank_image(
        {0: 1, 1: 2, 2: 0, 3: 1, 4: 2, 5: 4}))


def test_admissible_catalog_contents():
    cat = admissible_shapes()
    assert len(cat) == 12
    assert "" in cat
    assert graph_shape(preper_points(QuadMap(F(-29, 16)))) in cat


def test_admissible_catalog_is_built_once():
    # graph calls it on every command: the second call is the first one's set
    assert admissible_shapes() is admissible_shapes()
    assert sorted(admissible_shapes()) == [
        "", "1:((()()));1:(())", "1:((()));1:(())", "1:(())", "1:(());1:(())",
        "1:(());1:(());2:(()),(())", "1:(());1:()", "2:((()())),(())", "2:(()),(())",
        "2:(()),()", "3:((()())),(()),(())", "3:(()),(()),(())"]


def test_shapes_are_their_code_strings():
    # graph_shape, the catalogue and the census all carry the code itself
    assert type(graph_shape(preper_points(QuadMap(F(-29, 16))))) is str
    assert {type(code) for code in admissible_shapes()} == {str}
    res = scan(300)
    assert {type(code) for code in res.census} == {str}
    assert list(res.census) == sorted(res.census)


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
    assert scan(8) == res
    assert list(c_values_up_to_height(8))[:3] == [(-8, 1), (-7, 1), (-6, 1)]
    with pytest.raises(ValueError):
        scan(0)
    # the height is checked at the call, not at the first read of the iterator
    with pytest.raises(ValueError):
        c_values_up_to_height(0)
    with pytest.raises(BudgetError, match=f"exceeds the scan budget of {SCAN_BUDGET}"):
        scan(SCAN_BUDGET + 1)


# each of the five budgets one step past its edge, with its own message
BUDGET_REFUSALS = [
    (lambda: preper_points(QuadMap(F(-249999500000))),
     "the candidate box of c = -249999500000 holds 1000001 numerators, "
     "more than the budget of 1000000"),
    (lambda: scan(SCAN_BUDGET + 1), "scan height 10001 exceeds the scan budget of 10000"),
    (lambda: rational_points_bounded(C1_32, SEARCH_BUDGET + 1),
     "height bound 10001 exceeds the search budget of 10000"),
    (lambda: count_points(C1_32, 1009, 2), "field size 1018081 exceeds the enumeration budget"),
    (lambda: make_family_point("p1", F(10**600)),
     "the parameter has a numerator or denominator of more than 600 digits"),
]


@pytest.mark.parametrize("call, message", BUDGET_REFUSALS,
                         ids=["box", "scan", "search", "count", "parameter"])
def test_every_budget_refuses_with_budget_error(call, message):
    with pytest.raises(BudgetError) as err:
        call()
    assert type(err.value) is BudgetError
    assert str(err.value) == message


def test_scan_census_totals_match_parameter_count():
    res = scan(15)
    total = sum(count for count, _ in res.census.values())
    assert total == len(list(c_values_up_to_height(15)))


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
        assert orbit_classify(f, x) is None


def test_scan_size_bound_probe():
    res = scan(40)
    assert res.bound_violations == []
    for shape, (count, samples) in res.census.items():
        for c in samples:
            assert preper_points(QuadMap(c)).size_with_infinity() <= 9


def test_mirror_count_rule():
    # the number of depth-1 points equals the number of cycle points of the
    # same period, one less exactly for (c, m) in {(-1, 2), (0, 1)}
    for u, v in c_values_up_to_height(25):
        c = F(u, v * v)
        g = preper_points(QuadMap(c))
        types = g.orbit_types().values()
        for m in (1, 2, 3):
            periodic = sum(1 for t in types if t == (m, 0))
            depth1 = sum(1 for t in types if t == (m, 1))
            expected = periodic - (1 if (c, m) in ((F(-1), 2), (F(0), 1)) else 0)
            if periodic:
                assert depth1 == expected, (c, m)


POINTS_2916 = ((F(3, 4), (3, 2)), (F(-3, 4), (3, 2)))
ODD_3 = odd_model_transform(C1_32, 3, 1)
Q24_E24 = BIRATIONAL_PAIRS["q24_e24"]


def _graph_case(g):
    return g, PreperGraph(g.c, g.vertices, {}), PreperGraph(g.c, frozenset(), {}), repr(g)


def _rebuilt(maps):
    # equal maps that are other objects: RationalMap compares by value
    return tuple(RationalMap(m.num, m.den) for m in maps)


# per value class, built by the test that reads it, so that a fault in
# one constructor fails its own case and not the collection of the
# module: an instance, an equal one that differs at most in the fields
# equality ignores, an unequal one, and str of the first
VALUE_CASES = {
    "QuadMap": lambda: (
        QuadMap(F(1, 4)), QuadMap(F(1, 4)), QuadMap(F(-2)), "QuadMap(c=Fraction(1, 4))"),
    "PreperGraph": lambda: _graph_case(preper_points(QuadMap(F(-29, 16)))),
    "FamilyPoint": lambda: (
        FamilyPoint("t32", None, F(-29, 16), POINTS_2916),
        FamilyPoint("t32", None, F(-29, 16), POINTS_2916, {"rho": F(1)}),
        FamilyPoint("t32", None, F(-21, 16), POINTS_2916),
        "FamilyPoint(family='t32', parameter=None, c=Fraction(-29, 16), points=("
        "(Fraction(3, 4), (3, 2)), (Fraction(-3, 4), (3, 2))), aux={})"),
    "ScanResult": lambda: (scan(2), scan(2), scan(3), repr(scan(2))),
    "CheckResult": lambda: (
        CheckResult("a", "s", "pass"), CheckResult("a", "s", "pass", None, ""),
        CheckResult("a", "s", "fail"),
        "CheckResult(id='a', statement='s', status='pass', value=None, note='')"),
    "Report": lambda: (
        Report(), Report([]), Report([CheckResult("a", "s", "pass")]), "Report(checks=[])"),
    "CurveModel": lambda: (
        E40, CurveModel("e40", Poly((1, -2, 0, 1))), CurveModel("e40", C1_32.g),
        "CurveModel(label='e40', g=Poly(1 + -2*x + x^3), h=Poly(0))"),
    "CurveFunctionField": lambda: (
        C1_32.function_field(), CurveFunctionField(Poly(), C1_32.g), E40.function_field(),
        "CurveFunctionField(s=Poly(0), t=Poly(1 + 2*x + 5*x^2 + 2*x^3 + -2*x^4 + x^6))"),
    "CurvePoint": lambda: (
        CurvePoint.affine(1, 3), CurvePoint(F(1), F(3)), CurvePoint.infinite(1), "(1,3)"),
    "BirationalPair": lambda: (
        Q24_E24,
        BirationalPair("q24_e24", Q24_E24.source, Q24_E24.target,
                       _rebuilt(Q24_E24.forward), _rebuilt(Q24_E24.backward)),
        BirationalPair("q24_e24", Q24_E24.source, Q24_E24.target,
                       Q24_E24.backward, Q24_E24.forward),
        repr(Q24_E24)),
    "OddModel": lambda: (
        ODD_3, OddModel(FpPoly(3, (4, 3, 1, 2, 5, 1)), 1, 1), OddModel(ODD_3.f, 1, 2),
        "OddModel(f=FpPoly(3, [1, 0, 1, 2, 2, 1]), r=1, scale=1)"),
    "MonicModel": lambda: (
        MonicModel(FpPoly(7, (1, 5, 0, 1))), MonicModel(FpPoly(7, (8, -2, 7, 8))),
        MonicModel(FpPoly(5, (1, 3, 0, 1))), "MonicModel(f=FpPoly(7, [1, 5, 0, 1]))"),
    "MumfordDivisor": lambda: (
        divisor_identity(ODD_3), MumfordDivisor(ODD_3, FpPoly(3, (1,)), FpPoly(3)),
        divisor_from_points(ODD_3, [ODD_3.to_odd(KNOWN_POINTS["inf+"])]),
        "MumfordDivisor(model=OddModel(f=FpPoly(3, [1, 0, 1, 2, 2, 1]), "
        "r=1, scale=1), u=FpPoly(3, [1]), v=FpPoly(3, []))"),
    "PadicSeries": lambda: (
        PadicSeries(3, 1, {0: 4}), PadicSeries(3, 1, ((0, 1),)), PadicSeries(3, 1),
        "PadicSeries(p=3, r=1, coeffs=((0, 1),))"),
}
# the fields of these hold a dict or a list, so they have no hash
UNHASHABLE = ("ScanResult", "Report")
# the fields of these print as something other than a constructor call
NO_EVAL = ("CurveModel", "BirationalPair", "CurveFunctionField")


@pytest.mark.parametrize("name", sorted(VALUE_CASES))
def test_value_classes_compare_hash_print_and_freeze(name):
    a, same, different, text = VALUE_CASES[name]()
    assert type(a).__name__ == name
    assert a == same and not a != same
    assert a != different and not a == different
    assert a != (a,)  # another type is never equal
    assert str(a) == text
    # repr is the constructor call, and a pickle round trip keeps the value
    scope = {cls.__name__: cls for cls in (
        Fraction, PreperGraph, QuadMap, ScanResult, FamilyPoint, CheckResult,
        Report, CurvePoint, FpPoly, OddModel, MonicModel, MumfordDivisor, PadicSeries)}
    if name not in NO_EVAL:
        assert eval(repr(a), scope) == a
    assert pickle.loads(pickle.dumps(a)) == a
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(same) and len({a, same, different}) == 2
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == same
    if name == "FamilyPoint":
        # a point built without aux gets a dict of its own
        assert a.aux == {} and a.aux is not different.aux


@pytest.mark.parametrize("trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy,
                                  copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_quad_map_rebuilds_its_walk_state_outside_the_value(trip):
    f = QuadMap(F(-29, 16))
    assert repr(f) == "QuadMap(c=Fraction(-29, 16))"
    assert (f.d, f.u, f.step(3), f.step(2)) == (4, -29, -5, None)
    assert (QuadMap(F(1, 2)).d, QuadMap(F(1, 2)).step) == (None, None)
    g = trip(f)
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    # the copy derives its own state from c
    assert (g.d, g.u) == (4, -29) and g.step is not f.step and g.step(3) == -5
    assert [orbit_classify(g, x) for x in (F(3, 4), F(1, 4), F(1, 3))] == \
        [orbit_classify(f, x) for x in (F(3, 4), F(1, 4), F(1, 3))]
    assert preper_points(g) == preper_points(f)
    assert preper_points(g).edges == preper_points(f).edges
    # derived slots are not settable, and equality and hashing ignore them
    for name in ("d", "u", "step"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    object.__setattr__(g, "d", None)
    assert g == f and hash(g) == hash(f)


_FIELD = C1_32.function_field()
ROUND_TRIP_CASES = {
    "Poly": Poly((F(1, 2), -3, 0, 7)),
    "FpPoly": FpPoly(7, (3, 0, 5)),
    "BiPoly": BiPoly((Poly((1, 2)), Poly((F(-1, 3),)))),
    "FqElem": FqElem(743, (330, 2)),
    "FieldElement": (_FIELD.x() + _FIELD.y()) / (_FIELD.x() + 1),
    "RationalMap": Q24_E24.forward[1],
    "C1_32": C1_32,
    "OddModel": ODD_3,
    "MumfordDivisor": divisor_from_points(ODD_3, [ODD_3.to_odd(KNOWN_POINTS["R+"])]),
    "BirationalPair": Q24_E24,
}


def _value_subclasses(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_subclasses(sub)


def test_every_value_class_is_frozen():
    # one instance of every Value class of the package, from the cases
    # above: no field of any of them can be assigned or deleted
    instances = {type(v): v for v in [*(case()[0] for case in VALUE_CASES.values()),
                                      *ROUND_TRIP_CASES.values()]}
    package = {cls for cls in _value_subclasses() if cls.__module__.startswith("preper.")}
    assert package - set(instances) == {_DensePoly}  # the shared ring base
    for value in instances.values():
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CASES))
@pytest.mark.parametrize("trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy,
                                  copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_exact_values_survive_pickle_and_copy(name, trip):
    value = ROUND_TRIP_CASES[name]
    assert trip(value) == value
