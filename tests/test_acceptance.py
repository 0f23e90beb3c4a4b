"""Acceptance criteria, one test per criterion.

Every test prints one "ACCEPTANCE <id>: PASS|FAIL" line (visible with
pytest -s and in the captured output on failure).  All arithmetic is
exact, so assertions are equalities unless a criterion says otherwise.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from preper.curves import (
    BIRATIONAL_PAIRS,
    C1_32,
    CORRECTED_POINTS,
    CURVES,
    PRINTED_POINTS,
    elliptic_points_bounded,
    good_reduction_model_check,
    rational_points_bounded,
    verify_map_pair,
    verify_point_list,
    x1_13_discriminant_check,
)
from preper.descent import (
    factorization_identities,
    local_743_analysis,
    local_two_torsion_count,
    table1_check,
)
from preper.dynamics import (
    QuadMap,
    admissible_shapes,
    graph_shape,
    preper_points,
    scan,
)
from preper.exactmath import discriminant, legendre_symbol, valuation
from preper.families import (
    ExcludedParameterError,
    family_period1,
    family_period1and2,
    family_period2,
    family_period3,
    family_type12,
    family_type22,
    family_type32,
    validate_family,
)
from preper.ffjac import (
    KNOWN_POINTS,
    cantor_mul,
    cantor_neg,
    count_points,
    divisor_from_points,
    divisor_order,
    enumerate_jacobian,
    jacobian_order,
    odd_model_transform,
)
from preper.padic import (
    ELL1,
    ELL2,
    L1_SERIES,
    L2_SERIES,
    THETA_SERIES,
    branch_series,
    chabauty_determinant,
    known_zero_accounting,
    strassman_bound,
)

F = Fraction


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_01_graph_of_minus_29_16():
    with criterion("01 preperiodic graph of c = -29/16"):
        t0 = time.time()
        f = QuadMap(F(-29, 16))
        g = preper_points(f)
        assert len(g.vertices) == 8 and g.size_with_infinity() == 9
        types = g.orbit_types()
        cycle = {v for v, t in types.items() if t == (3, 0)}
        depth1 = {v for v, t in types.items() if t == (3, 1)}
        depth2 = {v for v, t in types.items() if t == (3, 2)}
        assert len(cycle) == 3 and len(depth1) == 3
        assert depth2 == {F(3, 4), F(-3, 4)}
        orbit = [F(3, 4)]
        for _ in range(4):
            orbit.append(f(orbit[-1]))
        assert orbit == [F(3, 4), F(-5, 4), F(-1, 4), F(-7, 4), F(5, 4)]
        assert time.time() - t0 < 1.0


def test_criterion_02_scan_height_100():
    with criterion("02 census at height 100"):
        res = scan(100)
        assert res.bound_violations == []      # nothing beyond 9 points with infinity
        assert res.out_of_catalog == []        # every shape in the derived catalog
        catalog = admissible_shapes()
        assert set(res.census) <= catalog
        for c in (F(-1), F(1, 4), F(0), F(-2), F(-29, 16)):
            shape = graph_shape(preper_points(QuadMap(c)))
            count, samples = res.census[shape]
            assert count == 1 and samples == [c]


def test_criterion_03_discriminant_and_good_reduction_model():
    with criterion("03 discriminant and the reduction-at-2 model"):
        assert discriminant(C1_32.g) == -(2 ** 12) * 743
        rep = good_reduction_model_check()
        assert rep.ok
        assert rep["gr2-printed-model"].status == "pass"
        assert rep["gr2-smooth"].status == "pass"


def test_criterion_04_norm_table_and_factorizations():
    with criterion("04 norm table and ramified-prime factorizations"):
        rep = table1_check()
        assert rep.ok
        norms = {c.id: c.value for c in rep.checks}
        assert norms == {"norm-u1": 1, "norm-u2": 1, "norm-minus_one": 1,
                         "norm-alpha": 8, "norm-beta1": 743,
                         "norm-beta2": 743 ** 2, "norm-beta3": 743 ** 2}
        fid = factorization_identities()
        assert fid.ok
        assert fid["two-factors"].status == "pass"
        assert fid["p743-factors"].status == "pass"


def test_criterion_05_743_adic_suite():
    with criterion("05 743-adic suite"):
        rep = local_743_analysis()
        assert rep.ok, [c.id for c in rep.failures]
        assert rep["l743-shape"].value == [(1, 2), (2, 1), (2, 1)]
        assert rep["l743-root1"].status == "pass"   # g(330+2i) = 0
        assert rep["l743-root2"].status == "pass"   # g(458+44i) = 0
        assert legendre_symbol(33, 743) == 1
        assert rep["l743-2mT"].value.count(True) == 1   # square in exactly one factor
        assert rep["l743-u2"].status == "pass"          # square in neither
        assert local_two_torsion_count([(1, 2), (2, 1), (2, 1)]) == 4


def test_criterion_06_counts_orders_and_torsion():
    with criterion("06 point counts, orders, torsion, brute cross-check"):
        assert count_points(C1_32, 3) == 7
        assert jacobian_order(C1_32, 3) == 27
        assert jacobian_order(C1_32, 5) == 43
        from math import gcd
        assert gcd(27, 43) == 1
        for p, root in ((3, 1), (7, 4)):
            model = odd_model_transform(C1_32, p, root)
            assert len(enumerate_jacobian(model)) == jacobian_order(C1_32, p)


def test_criterion_07_divisor_identities_mod_3():
    with criterion("07 mod-3 divisor identities"):
        model = odd_model_transform(C1_32, 3, 1)
        els = enumerate_jacobian(model)
        assert len(els) == 27
        a_plus = model.to_odd(KNOWN_POINTS["inf+"])
        D = divisor_from_points(model, [a_plus, a_plus])
        assert divisor_order(D, 30) == 27          # cyclic of order 27, D generates
        target = divisor_from_points(
            model, [model.to_odd(KNOWN_POINTS["Q-"]), model.to_odd(KNOWN_POINTS["R+"])])
        nine = cantor_mul(9, D)
        assert nine == target or nine == cantor_neg(target)
        assert cantor_mul(27, D).is_identity()
        reductions = {}
        for name, pt in KNOWN_POINTS.items():
            key = ("inf", pt.branch) if pt.is_infinite else (
                pt.x.numerator * pow(pt.x.denominator, -1, 3) % 3,
                pt.y.numerator * pow(pt.y.denominator, -1, 3) % 3)
            reductions.setdefault(key, []).append(name)
        collisions = {k: sorted(v) for k, v in reductions.items() if len(v) > 1}
        # exactly one colliding pair, at the Weierstrass point (1, 0); it is
        # the pair with y = +-3, labelled S+- here
        assert collisions == {(1, 0): ["S+", "S-"]}


def test_criterion_08_branch_series():
    with criterion("08 branch series coefficients and 3-integrality"):
        xi = branch_series(10)
        assert xi[:5] == (F(1), F(-3, 8), F(-31, 512),
                                 F(105, 16384), F(15269, 2097152))
        assert all(valuation(c, 3) >= 0 for c in xi if c)


def test_criterion_09_determinant_and_strassman():
    with criterion("09 determinant congruence and Strassman accounting"):
        delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
        assert delta.coeffs == ((1, 54), (2, 0), (3, 27)) and delta.r == 4
        assert strassman_bound(delta) == 3
        assert strassman_bound(THETA_SERIES["Q"]) == 1
        assert known_zero_accounting(1, [0]).ok
        assert known_zero_accounting(3, [0, 1, 2]).ok


def test_criterion_10_bounded_searches_stable():
    with criterion("10 bounded searches at height 1000, stable when doubled"):
        expected = {"c1_32": 8, "x1_18": 6, "x1_13": 6}
        for label, n in expected.items():
            first = rational_points_bounded(CURVES[label], 1000)
            assert len(first) == n, (label, len(first))
            assert rational_points_bounded(CURVES[label], 2000) == first
        # the elliptic models: the affine points of the corrected group
        for label, group in CORRECTED_POINTS.items():
            first = elliptic_points_bounded(CURVES[label], 1000)
            assert first == {(F(x), F(y)) for x, y in group[1:]}, label
            assert elliptic_points_bounded(CURVES[label], 2000) == first


def test_criterion_11_birational_identities():
    with criterion("11 printed birational identities and the e24 discrepancy"):
        for pair_id in sorted(BIRATIONAL_PAIRS):
            rep = verify_map_pair(BIRATIONAL_PAIRS[pair_id])
            fails = [c.id for c in rep.failures]
            if pair_id == "q17_e17":
                # the printed forward map is off by one term; the corrected
                # map and every composition identity verify exactly
                assert fails == ["q17_e17-printed-forward-on-target"]
            else:
                assert fails == []
        assert x1_13_discriminant_check().ok
        found = elliptic_points_bounded(CURVES["e24"], 400)
        e24 = verify_point_list(CURVES["e24"], PRINTED_POINTS["e24"], found, 400)
        assert e24["e24-on-curve"].status == "fail"    # documents (-1, 1)
        assert verify_point_list(CURVES["e24"], CORRECTED_POINTS["e24"], found, 400).ok


def test_criterion_12_random_family_validation():
    with criterion("12 random parameters validate in every family"):
        rng = random.Random(2024)

        def draw(excluded):
            while True:
                q = F(rng.randint(-200, 200), rng.randint(1, 24))
                if q not in excluded:
                    return q

        jobs = [
            (family_period1, ()),
            (family_period2, (F(0),)),
            (family_period3, (F(0), F(-1))),
            (family_period1and2, (F(0), F(1), F(-1))),
            (family_type12, (F(1), F(-1))),
            (family_type22, (F(0), F(1), F(-1))),
        ]
        for maker, excluded in jobs:
            for _ in range(200):
                fp = maker(draw(excluded))
                assert validate_family(fp).ok, fp
            for bad in excluded:
                with pytest.raises(ExcludedParameterError):
                    maker(bad)
        assert validate_family(family_type32()).ok
