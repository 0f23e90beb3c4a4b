import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from oracles import ModP, brute_char2_smooth, brute_square_points, residue_mask
from preper import curves
from preper.curves import (
    BIRATIONAL_PAIRS,
    C1_32,
    CORRECTED_POINTS,
    CURVES,
    E11,
    E24,
    E40,
    MISPRINTS,
    PRINTED_POINTS,
    Q24,
    SEARCH_BUDGET,
    X1_13,
    X1_18,
    BirationalPair,
    CurveModel,
    CurvePoint,
    classify_c_from_curve_point,
    elliptic_points_bounded,
    good_reduction_model_check,
    point_classes,
    rational_points_bounded,
    verify_map_pair,
    verify_point_list,
    weierstrass,
    x1_13_discriminant_check,
)
from preper.dynamics import BudgetError
from preper.exactmath import BiPoly, FieldElement, Poly, RationalMap, discriminant
from preper.ffjac import cantor_add, cantor_neg

F = Fraction


def test_registry_ids():
    assert set(CURVES) == {"c1_32", "x1_18", "x1_13", "e11", "e15", "e17", "e24",
                           "e40", "q24", "q40", "q15", "q17", "q11", "conic_p1p2"}


def test_bounded_search_known_sets():
    pts = rational_points_bounded(C1_32, 100)
    expected = {CurvePoint.affine(-1, 1), CurvePoint.affine(-1, -1),
                CurvePoint.affine(0, 1), CurvePoint.affine(0, -1),
                CurvePoint.affine(1, 3), CurvePoint.affine(1, -3),
                CurvePoint.infinite(1), CurvePoint.infinite(-1)}
    assert pts == expected
    assert len(rational_points_bounded(X1_18, 100)) == 6
    assert len(rational_points_bounded(X1_13, 100)) == 6
    with pytest.raises(ValueError):
        rational_points_bounded(C1_32, 0)
    refusal = f"exceeds the search budget of {SEARCH_BUDGET}"
    with pytest.raises(BudgetError, match=refusal):
        rational_points_bounded(C1_32, SEARCH_BUDGET + 1)
    with pytest.raises(BudgetError, match=refusal):
        elliptic_points_bounded(E40, SEARCH_BUDGET + 1)


def test_points_satisfy_equation_and_involution():
    for curve in (C1_32, X1_18, X1_13):
        pts = rational_points_bounded(curve, 60)
        for p in pts:
            if p.is_infinite:
                assert CurvePoint.infinite(-p.branch) in pts
            else:
                assert CurvePoint.affine(p.x, -p.y - curve.h(p.x)) in pts
                assert p.y * p.y == curve.g(p.x)


def test_elliptic_group_law_basics():
    # Cantor's algorithm on the completed square: the identity is neutral,
    # and the five points of e11 are closed under negation and addition
    five = point_classes(E11, [None, (F(0), F(0)), (F(0), F(-1)), (F(1), F(0)), (F(1), F(-1))])
    O, P = five[:2]
    assert O.is_identity() and not P.is_identity()
    assert cantor_add(P, O) == P == cantor_add(O, P)
    assert cantor_add(P, five[3]) in five
    for A in five:
        assert cantor_neg(A) in five
        for B in five:
            assert cantor_add(A, B) in five
    # (1, 0) is 2-torsion on e40: the tangent there is vertical
    T, = point_classes(E40, [(F(1), F(0))])
    assert cantor_add(T, T).is_identity()
    with pytest.raises(ValueError):
        point_classes(E40, [(F(2), F(2))])


def _a_invariants(E):
    """(a1, a2, a3, a4, a6) of a model built by weierstrass()."""
    return (E.h[1], E.g[2], E.h[0], E.g[1], E.g[0])


@st.composite
def _curves_through_two_points(draw):
    """A Weierstrass curve through two drawn rational points P and Q with
    different x: a1, a2 and a3 are drawn, and a4 and a6 solve the two
    linear equations that put P and Q on the curve."""
    small = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
    a1, a2, a3 = (draw(st.integers(-3, 3)) for _ in range(3))
    P, Q = (draw(st.tuples(small, small)) for _ in range(2))
    assume(P[0] != Q[0])
    r1, r2 = ((y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x) for x, y in (P, Q))
    a4 = (r1 - r2) / (P[0] - Q[0])
    a6 = r1 - a4 * P[0]
    g, h = Poly((a6, a4, a2, 1)), Poly((a3, a1))
    assume(discriminant(h * h + g * 4) != 0)  # a singular cubic has no group law here
    return CurveModel("random", g, h), P, Q


@settings(max_examples=60, deadline=None)
@given(_curves_through_two_points())
@example((E40, (F(1), F(0)), (F(0), F(1))))  # P of order 2: doubling gives the identity
@example((E11, (F(0), F(0)), (F(1), F(-1))))  # inside the 5-point group
def test_cantor_sums_over_q_match_chord_and_tangent(curve):
    # the Cantor sum of every ordered pair among O, P, Q, -P, -Q, P + Q,
    # P - Q and 2P against the chord-and-tangent oracle, which also checks
    # that each sum is symmetric in its operands
    E, P, Q = curve
    a = _a_invariants(E)
    assert oracles.elliptic_on_curve(a, P) and oracles.elliptic_on_curve(a, Q)
    nP, nQ = oracles.elliptic_neg(a, P), oracles.elliptic_neg(a, Q)
    points = [None, P, Q, nP, nQ, oracles.elliptic_add(a, P, Q), oracles.elliptic_add(a, P, nQ),
              oracles.elliptic_add(a, P, P)]
    classes = point_classes(E, points)
    for A, DA in zip(points, classes):
        assert cantor_neg(DA) == point_classes(E, [oracles.elliptic_neg(a, A)])[0]
        for B, DB in zip(points, classes):
            total = cantor_add(DA, DB)
            assert total == cantor_add(DB, DA), (A, B)
            assert total == point_classes(E, [oracles.elliptic_add(a, A, B)])[0], (A, B)


@pytest.mark.parametrize("label", ["e11", "e15", "e17", "e40", "e24-corrected"])
def test_closure_row_fails_without_any_one_point(label):
    # a group less one point that is not the identity is not closed: the
    # negative of the missing point, or two points that sum to it, remain
    E, points = ((E24, CORRECTED_POINTS["e24"]) if label == "e24-corrected"
                 else (CURVES[label], PRINTED_POINTS[label]))
    found = elliptic_points_bounded(E, 20)
    assert verify_point_list(E, points, found, 20, label=label).ok
    dropped = 0
    for i, P in enumerate(points):
        if P is None:
            continue
        rep = verify_point_list(E, points[:i] + points[i + 1:], found, 20, label=label)
        assert rep[f"{label}-closure"].status == "fail", P
        dropped += 1
    assert dropped == len(points) - 1


def test_verify_point_lists_printed():
    for label in ("e11", "e15", "e17", "e40"):
        E = CURVES[label]
        rep = verify_point_list(E, PRINTED_POINTS[label], elliptic_points_bounded(E, 100), 100)
        assert rep.ok, [c.id for c in rep.failures]


def test_e24_printed_discrepancy_and_correction():
    found = elliptic_points_bounded(E24, 100)
    note = MISPRINTS["e24"]
    rep = verify_point_list(E24, PRINTED_POINTS["e24"], found, 100, note=note)
    assert not rep.ok
    on_curve = rep["e24-on-curve"]
    assert on_curve.status == "fail"
    assert "(-1,1)" in str(on_curve.value).replace(" ", "")
    # the misprint note joins every row's own note
    assert [c.note for c in rep.checks] == \
        ["claimed list contains off-curve points; " + note, note, note]
    ok_rep = verify_point_list(E24, CORRECTED_POINTS["e24"], found, 100, label="e24-corrected")
    assert ok_rep.ok
    assert [(c.id, c.note) for c in ok_rep.checks] == [
        ("e24-corrected-on-curve", ""), ("e24-corrected-closure", ""),
        ("e24-corrected-search", "")]


def test_search_refuses_a_value_off_the_curve(monkeypatch):
    # a kernel value that fails the curve equation is an error that
    # python -O keeps, not a point in the result
    def square_values(coeffs, height):
        yield F(0), F(2)  # on c1_32: square(0) = 4 g(0) = 4
        yield F(1), F(5)  # off it: square(1) = 36

    monkeypatch.setattr(curves, "_square_values", square_values)
    with pytest.raises(ArithmeticError, match=r"search value \(1, 5/2\) is off c1_32"):
        rational_points_bounded(C1_32, 10)


def test_elliptic_bounded_search_matches_lists():
    found = elliptic_points_bounded(E40, 80)
    assert found == {(F(0), F(1)), (F(0), F(-1)), (F(1), F(0))}


@pytest.mark.parametrize("pair_id", sorted(BIRATIONAL_PAIRS))
def test_birational_pairs_exact(pair_id):
    rep = verify_map_pair(BIRATIONAL_PAIRS[pair_id])
    bad = [c.id for c in rep.failures]
    if pair_id == "q17_e17":
        assert bad == ["q17_e17-printed-forward-on-target"]
    else:
        assert not bad


def _fp_eval(q: Poly, x, p: int) -> ModP:
    """q(x) over F_p by Horner on the raw coefficients of q."""
    acc = ModP(0, p)
    for c in reversed(q.coeffs):
        acc = acc * x + c
    return acc


def _fp_points_on_quartic(q: Poly, p: int, rng, n):
    assert p % 4 == 3  # so a square v has the root v^((p+1)/4)
    pts = []
    while len(pts) < n:
        x = ModP(rng.randrange(p), p)
        v = _fp_eval(q, x, p).v
        r = pow(v, (p + 1) // 4, p)
        if r * r % p == v:
            pts.append((x, ModP(r, p)))
            pts.append((x, ModP(-r, p)))
    return pts


@pytest.mark.parametrize("pair_id", ["q24_e24", "q40_e40", "q15_e15", "q17_e17", "q11_e11"])
def test_birational_pairs_at_random_finite_points(pair_id):
    """Second oracle: evaluate the maps at concrete curve points over F_p."""
    pair = BIRATIONAL_PAIRS[pair_id]
    E = pair.target
    rng = random.Random(hash(pair_id) & 0xFFFF)
    checked = 0
    assert pair.source.h.is_zero()
    for (x, y) in _fp_points_on_quartic(pair.source.g, 10007, rng, 24):
        try:
            X = pair.forward[0].eval(x, y)
            Y = pair.forward[1].eval(x, y)
            bu = pair.backward[0].eval(X, Y)
            bv = pair.backward[1].eval(X, Y)
        except ZeroDivisionError:
            continue
        assert Y * Y + _fp_eval(E.h, X, 10007) * Y == _fp_eval(E.g, X, 10007)
        assert bu == x and bv == y
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("pair_id", ["q24_e24", "q40_e40", "q15_e15", "q17_e17", "q11_e11"])
def test_birational_pairs_at_integer_points(pair_id):
    """Third oracle: at integer points of the quartic the maps give exact
    rationals (an int / int quotient would be a float) on the target, and
    the backward map returns the point."""
    pair = BIRATIONAL_PAIRS[pair_id]
    checked = 0
    for u in range(-6, 7):
        s = pair.source.g(u)
        t = isqrt(max(s, 0))
        if t * t != s:
            continue
        for v in {t, -t}:
            try:
                X, Y = (m.eval(u, v) for m in pair.forward)
                back = tuple(m.eval(X, Y) for m in pair.backward)
            except ZeroDivisionError:
                continue
            assert type(X) is Fraction and type(Y) is Fraction
            assert pair.target.contains((X, Y))
            assert back == (u, v)
            checked += 1
    assert checked >= 2


def test_verify_map_pair_rejects_a_wrong_map():
    # perturbing one forward coefficient must break the on-target identity
    U, V = BiPoly.x(), BiPoly.y()
    good = BIRATIONAL_PAIRS["q24_e24"]
    bad = BirationalPair(
        "q24_e24_broken", Q24, good.target,
        forward=(RationalMap(V + 3, (U - 1) ** 2), good.forward[1]),
        backward=good.backward)
    rep = verify_map_pair(bad)
    assert not rep.ok
    # perturbing one backward coefficient must break both roundtrips
    bad = BirationalPair(
        "q24_e24_broken", Q24, good.target, forward=good.forward,
        backward=(RationalMap(U ** 2 - 2 * V + 1, U ** 2 + 1), good.backward[1]))
    rep = verify_map_pair(bad)
    assert rep["q24_e24_broken-forward-on-target"].status == "pass"
    assert rep["q24_e24_broken-roundtrip-source"].status == "fail"
    assert rep["q24_e24_broken-roundtrip-target"].status == "fail"


_small_polys = st.lists(st.integers(-4, 4), max_size=4).map(Poly)
_nonzero_polys = _small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(a=_small_polys, b=_small_polys, d=_nonzero_polys, m=_nonzero_polys,
       a2=_small_polys, b2=_small_polys, d2=_nonzero_polys)
def test_field_element_arithmetic_on_q24(a, b, d, m, a2, b2, d2):
    field = Q24.function_field()
    x = FieldElement(field, a, b, d)
    # the same value over another denominator compares equal
    assert FieldElement(field, a * m, b * m, d * m) == x
    assert x + 1 != x and x + field.y() != x
    assert (x - x).is_zero() and x - x == 0
    with pytest.raises(ZeroDivisionError):
        (x - x).inverse()
    y = FieldElement(field, a2, b2, d2)
    if not y.is_zero():
        assert (x * y) / y == x
        assert y * y.inverse() == 1


_base_operands = st.one_of(st.integers(-9, 9), _small_polys,
                          st.fractions(-4, 4, max_denominator=6))


def _generic_sum(x, a2, b2, d2):
    """The triple of x + (a2 + b2 y)/d2 by cross-multiplication."""
    return x.a * d2 + a2 * x.d, x.b * d2 + b2 * x.d, x.d * d2


def _generic_product(x, a2, b2, d2):
    """The triple of x * (a2 + b2 y)/d2, reduced by y^2 = s y + t."""
    s, t = x.field.s, x.field.t
    return (x.a * a2 + x.b * b2 * t, x.a * b2 + x.b * a2 + x.b * b2 * s, x.d * d2)


def _is_triple(e, a, b, d) -> bool:
    """e equals (a + b y)/d, compared by cross-multiplication."""
    return e.a * d == a * e.d and e.b * d == b * e.d


@settings(max_examples=80, deadline=None)
@given(a=_small_polys, b=_small_polys, d=_nonzero_polys, c=_base_operands,
       a2=_small_polys, d2=_nonzero_polys)
def test_field_element_base_field_operands_match_the_generic_triples(a, b, d, c, a2, d2):
    field = Q24.function_field()
    x = FieldElement(field, a, b, d)
    # an int, Fraction or Poly c is (c, 0, 1); the fast paths keep d
    lifted = (c if isinstance(c, Poly) else Poly((c,)), Poly(), Poly((1,)))
    for e in (x + c, c + x):
        assert _is_triple(e, *_generic_sum(x, *lifted)) and e.d == d
    for e in (x * c, c * x):
        assert _is_triple(e, *_generic_product(x, *lifted)) and e.d == d
    # an element of Q(x), b = 0, multiplies without the y-part product
    q = FieldElement(field, a2, Poly(), d2)
    for e in (x * q, q * x):
        assert _is_triple(e, *_generic_product(x, a2, Poly(), d2)) and e.d == d * d2
    e = x + q
    assert _is_triple(e, *_generic_sum(x, a2, Poly(), d2))


@settings(max_examples=60, deadline=None)
@given(a=_small_polys, d=_nonzero_polys)
def test_inverse_on_q_of_x_swaps_the_triple(a, d):
    q = FieldElement(Q24.function_field(), a, Poly(), d)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            q.inverse()
        return
    inv = q.inverse()
    assert (inv.a, inv.b, inv.d) == (d, Poly(), a)
    assert q * inv == 1 and inv * q == 1 and 1 / q == inv


def test_q17_backward_of_forward_stays_small():
    # backward-y(forward) on q17: degree 27 with the Q(x) inverse d/a, 58
    # when a/d was inverted through the norm a^2 as (d*a, 0, a^2)
    pair = BIRATIONAL_PAIRS["q17_e17"]
    field = pair.source.function_field()
    X, Y = (m.eval(field.x(), field.y()) for m in pair.forward)
    e = pair.backward[1].eval(X, Y)
    assert max(e.a.degree, e.b.degree, e.d.degree) <= 27


def test_roundtrip_row_with_a_vanishing_denominator_raises():
    # the roundtrip rows cross-multiply, num(P) == target * den(P), so a
    # den(P) that is zero on the curve must raise, not pass as 0 == 0
    good = BIRATIONAL_PAIRS["q24_e24"]
    bad = BirationalPair(
        "q24_e24_zero_den", good.source, good.target, forward=good.forward,
        backward=(good.backward[0], RationalMap(BiPoly.x(), good.target.equation())))
    with pytest.raises(ZeroDivisionError, match="vanishes on the curve"):
        verify_map_pair(bad)


def _bumped(bp):
    """Every copy of the BiPoly bp with one nonzero coefficient raised by 1."""
    for j, row in enumerate(bp.coeffs):
        for i, c in enumerate(row.coeffs):
            if c:
                rows = list(bp.coeffs)
                rows[j] = Poly(row.coeffs[:i] + (c + 1,) + row.coeffs[i + 1:])
                yield BiPoly(rows)


@pytest.mark.parametrize("pair_id", sorted(BIRATIONAL_PAIRS))
def test_every_coefficient_mutation_fails_an_identity_row(pair_id):
    # raising any one nonzero coefficient of a numerator or denominator that
    # a row reads must make a row fail that passes on the true pair, or raise
    # ZeroDivisionError; the conic's constant forward[1] is read by no row
    pair = BIRATIONAL_PAIRS[pair_id]
    failing = {c.id for c in verify_map_pair(pair).failures}
    mutants = 0
    for side in ("forward", "backward"):
        maps = getattr(pair, side)
        for k, m in enumerate(maps):
            if pair.target == "p1" and (side, k) == ("forward", 1):
                continue
            for mutant in [*(RationalMap(n, m.den) for n in _bumped(m.num)),
                           *(RationalMap(m.num, d) for d in _bumped(m.den))]:
                mutants += 1
                changed = list(maps)
                changed[k] = mutant
                bad = BirationalPair(
                    pair_id, pair.source, pair.target,
                    **{"forward": pair.forward, "backward": pair.backward, side: tuple(changed)},
                    note=pair.note, printed_forward=pair.printed_forward)
                try:
                    rep = verify_map_pair(bad)
                except ZeroDivisionError:
                    continue
                assert {c.id for c in rep.failures} - failing, (side, k, mutant)
    assert mutants >= 10


def test_conic_parametrization_at_rational_points():
    pair = BIRATIONAL_PAIRS["conic_p1"]
    for m in (F(2), F(3), F(-5, 7), F(11, 3)):
        sigma = pair.backward[0].eval(m, m)
        rho = pair.backward[1].eval(m, m)
        assert rho * rho - sigma * sigma == 1
        assert pair.forward[0].eval(sigma, rho) == m


def test_x1_13_discriminant_identity():
    rep = x1_13_discriminant_check()
    assert rep.ok
    assert rep["x113-degree"].value == 6
    # one flipped sign breaks it
    bad = (Poly((0, 0, -1, 1)), Poly((1, -1, 0, 1)), Poly((0, 0, 1)))
    assert not x1_13_discriminant_check(bad).ok


def test_good_reduction_model():
    rep = good_reduction_model_check()
    assert rep.ok
    assert rep["gr2-printed-model"].status == "pass"
    neg = good_reduction_model_check(Poly((2, 0, 0, 0, 0, 0, 1)))  # x^6 + 2
    assert not neg.ok
    assert neg["gr2-smooth"].status == "fail"


@given(st.lists(st.integers(-3, 3), min_size=7, max_size=7))
@example([0, 0, 1, 0, -1, 0, 0])  # the c1_32 model: q = x^2 - x^4
@example([2, 2, 1, -3, 1, 1, 0])  # singular over the roots of x^3 + x + 1
@settings(max_examples=150, deadline=None)
def test_good_reduction_gcd_matches_enumeration(q):
    # g = h^2 + 4q always passes the divisibility step, so the smoothness
    # verdict is the only thing under test
    h = [1, 1, 0, 1]
    rep = good_reduction_model_check(Poly(h) * Poly(h) + Poly(q) * 4)
    assert rep["gr2-integral"].status == "pass"
    smooth = brute_char2_smooth(h, q)
    assert rep["gr2-smooth"].status == ("pass" if smooth else "fail")
    if not smooth:
        assert rep["gr2-smooth"].value == [1, [1, 1, 0, 1]]


def test_classify_c_from_curve_point():
    assert classify_c_from_curve_point(CurvePoint.affine(1, 3)) == (F(-29, 16), F(3, 4))
    assert classify_c_from_curve_point(CurvePoint.affine(1, -3)) == (F(-29, 16), F(-3, 4))
    assert classify_c_from_curve_point(CurvePoint.affine(0, 1)) is None
    assert classify_c_from_curve_point(CurvePoint.affine(-1, 1)) is None
    assert classify_c_from_curve_point(CurvePoint.infinite(1)) is None
    with pytest.raises(ValueError):
        classify_c_from_curve_point(CurvePoint.affine(2, 2))


def test_search_stability_under_doubling_small():
    # doubling the bound discovers nothing new at this scale
    for curve in (C1_32, X1_18, X1_13):
        assert rational_points_bounded(curve, 50) == rational_points_bounded(curve, 100)


def test_search_on_odd_degree_model():
    # y^2 = x^5 - x has only affine points in the search (no split infinity)
    quintic = CurveModel("odd5", Poly((0, -1, 0, 0, 0, 1)))
    pts = rational_points_bounded(quintic, 20)
    assert all(not p.is_infinite for p in pts)
    expected = brute_square_points((0, -1, 0, 0, 0, 1), 20)
    assert pts == frozenset(CurvePoint.affine(x, y) for x, y in expected)
    assert {p.x for p in pts} >= {F(0), F(1), F(-1)}


# heights up to 40 make the row width 2H + 1 cross every sieve prime and
# let b = 0 mod p occur; the examples put every coefficient in 3*5*7 Z
# (the value is 0 mod 3, 5 and 7 at every a) and make the leading one negative
@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=6, max_size=7),
       height=st.integers(1, 40))
@example(coeffs=[0, -105, 210, -105, -210, -105, 315], height=40)
@example(coeffs=[1, -2, 6, 4, 6, -2, -4], height=37)
def test_search_matches_oracle_on_random_models(coeffs, height):
    assume(coeffs[-1] != 0)
    g = Poly(tuple(coeffs))
    assume(discriminant(g) != 0)
    curve = CurveModel("random", g)
    pts = rational_points_bounded(curve, height)
    affine = {(p.x, p.y) for p in pts if not p.is_infinite}
    assert affine == brute_square_points(coeffs, height)
    assert len(pts) - len(affine) == (2 if curve.has_split_infinity() else 0)


@settings(max_examples=60, deadline=None)
@given(a=st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       height=st.integers(1, 40))
@example(a=[0, 315, 0, -315, 0], height=40)
@example(a=[0, 0, 0, 0, 0], height=5)  # y^2 = x^3, a cusp
@example(a=[0, 1, 0, 0, 0], height=5)  # y^2 = x^3 + x^2, a node
def test_elliptic_search_matches_oracle_on_random_models(a, height):
    a1, a2, a3, a4, a6 = a
    # the quadratic formula in y: (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2b4 x + b6
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    if -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6 == 0:
        with pytest.raises(ValueError):
            weierstrass("random", *a)
        return
    E = weierstrass("random", *a)
    expected = {(x, (s - a1 * x - a3) / 2)
                for x, s in brute_square_points((b6, 2 * b4, b2, 4), height)}
    found = elliptic_points_bounded(E, height)
    assert found == expected
    for x, y in found:
        assert y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def test_model_checks_reject_singular_models():
    with pytest.raises(ValueError):
        CurveModel("square", Poly((1, 0, 1)) ** 2)  # y^2 = (x^2 + 1)^2
    with pytest.raises(ValueError):
        CurveModel("flat", Poly((3,)))  # no discriminant at all
    with pytest.raises(ValueError):
        weierstrass("cusp", 0, 0, 0, 0, 0)  # y^2 = x^3
    with pytest.raises(ValueError):
        # y^2 + y = x^3 - 1/4 is (2y + 1)^2 = 4x^3
        CurveModel("cusp4", Poly((F(-1, 4), 0, 0, 1)), Poly((1,)))


def test_search_on_a_model_with_integral_square_only():
    # y^2 + y = x^3 + x - 1/4: g is not integral but h^2 + 4g = 4x^3 + 4x is
    E = CurveModel("quarter", Poly((F(-1, 4), 1, 0, 1)), Poly((1,)))
    found = elliptic_points_bounded(E, 12)
    assert found == {(x, (s - 1) / 2) for x, s in brute_square_points((0, 4, 0, 4), 12)}
    assert (F(0), F(-1, 2)) in found
    assert all(E.contains(P) for P in found)


def _search_matches_oracle(coeffs, height):
    """_square_values finds the oracle's points, each x once, in the order
    of the plain loop over b and then a."""
    found = list(curves._square_values(coeffs, height))
    xs = [x for x, _ in found]
    assert xs == sorted(set(xs), key=lambda x: (x.denominator, x.numerator))
    assert all(s >= 0 for _, s in found)
    assert {(x, t) for x, s in found for t in (s, -s)} == brute_square_points(coeffs, height)


# the odd-degree row filter removes the primes of c_n from b before asking
# for a square, so leading coefficients with square, non-square and
# repeated prime factors all occur
@settings(max_examples=80, deadline=None)
@given(deg=st.sampled_from((1, 3, 5)),
       lead=st.sampled_from((1, -1, 2, 3, 4, -6, 12, 18, -45)),
       rest=st.lists(st.integers(-6, 6), min_size=5, max_size=5),
       height=st.integers(1, 40))
# y^2 = 3x^3 + 1 has points over x = -2/3 and x = 40/3: the row b = 3 is no
# square, but 3 divides c_3
@example(deg=3, lead=3, rest=[1, 0, 0, 0, 0], height=40)
def test_search_matches_oracle_on_odd_degree_models(deg, lead, rest, height):
    _search_matches_oracle([*rest[:deg], lead], height)


# at a prime where c_n is a non-residue, the rows b = 0 mod p keep only
# the numerators a = 0 mod p
@settings(max_examples=60, deadline=None)
@given(deg=st.sampled_from((2, 4, 6)), lead=st.sampled_from((3, -5)),
       rest=st.lists(st.integers(-6, 6), min_size=6, max_size=6),
       height=st.integers(1, 40))
@example(deg=6, lead=3, rest=[1, 0, 0, 0, 0, 0], height=40)
def test_search_matches_oracle_on_even_degree_models(deg, lead, rest, height):
    _search_matches_oracle([*rest[:deg], lead], height)


@pytest.mark.parametrize("height", [1, 7, 40, 395])
def test_residue_masks_match_the_horner_masks(height):
    # one table per prime, read at a/r, gives the mask of every (p, b mod p)
    for curve in CURVES.values():
        coeffs = [int(c) for c in curve.square().coeffs]
        deg = len(coeffs) - 1
        for p in curves._SIEVE_PRIMES:
            masks = curves._residue_masks(coeffs, p, height)
            assert masks == [residue_mask(coeffs, deg + deg % 2, p, r, height)
                             for r in range(p)], (curve.label, p)
