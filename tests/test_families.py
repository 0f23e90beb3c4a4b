import random
from fractions import Fraction

import pytest

from preper.cli import _family_payload
from preper.dynamics import QuadMap, orbit_classify, preper_points
from preper.exactmath import Poly
from preper.families import (
    ExcludedParameterError,
    FamilyPoint,
    family_period1,
    family_period1and2,
    family_period2,
    family_period3,
    family_type12,
    family_type22,
    family_type32,
    make_family_point,
    validate_family,
)

F = Fraction


def test_period1_anchors():
    fp = family_period1(F(0))
    assert fp.c == F(1, 4) and [x for x, _ in fp.points] == [F(1, 2)]
    fp = family_period1(F(3, 2))
    assert fp.c == -2 and {x for x, _ in fp.points} == {2, -1}
    fp = family_period1(F(1, 2))
    assert fp.c == 0 and {x for x, _ in fp.points} == {0, 1}
    assert validate_family(fp).ok


def test_period2_anchors():
    fp = family_period2(F(1, 2))
    assert fp.c == -1 and {x for x, _ in fp.points} == {0, -1}
    fp = family_period2(F(1))
    assert fp.c == F(-7, 4) and {x for x, _ in fp.points} == {F(1, 2), F(-3, 2)}
    assert validate_family(fp).ok
    with pytest.raises(ExcludedParameterError):
        family_period2(F(0))


def test_period3_anchors():
    fp = family_period3(F(1))
    assert fp.c == F(-29, 16)
    assert {x for x, _ in fp.points} == {F(5, 4), F(-1, 4), F(-7, 4)}
    fp = family_period3(F(2))
    assert fp.c == F(-301, 144)
    assert [x for x, _ in fp.points] == [F(19, 12), F(5, 12), F(-23, 12)]
    # the forward orientation holds at these parameters
    f = QuadMap(fp.c)
    assert f(F(19, 12)) == F(5, 12)
    for bad in (F(-1), F(0)):
        with pytest.raises(ExcludedParameterError):
            family_period3(bad)


def test_period1and2_anchors():
    fp = family_period1and2(F(2))
    assert fp.c == F(-91, 36)
    assert fp.aux["rho"] == F(-5, 3) and fp.aux["sigma"] == F(4, 3)
    assert fp.c == F(1, 4) - fp.aux["rho"] ** 2 == F(-3, 4) - fp.aux["sigma"] ** 2
    fp = family_period1and2(F(3))
    assert fp.c == F(-21, 16)
    assert fp.aux["rho"] == F(-5, 4) and fp.aux["sigma"] == F(3, 4)
    assert validate_family(fp).ok
    for bad in (F(-1), F(0), F(1)):
        with pytest.raises(ExcludedParameterError):
            family_period1and2(bad)


def test_type12_anchors():
    fp = family_type12(F(0))
    assert fp.c == -2 and [x for x, _ in fp.points] == [F(0)]
    fp = family_type12(F(2))
    assert fp.c == F(-10, 9)
    assert {x for x, _ in fp.points} == {F(4, 3), F(-4, 3)}
    assert fp.aux["rho"] == F(-7, 6)
    # explicit orbit: 4/3 -> 2/3 -> -2/3 fixed
    f = QuadMap(fp.c)
    assert f(F(4, 3)) == F(2, 3) and f(F(2, 3)) == F(-2, 3) and f(F(-2, 3)) == F(-2, 3)
    with pytest.raises(ExcludedParameterError):
        family_type12(F(1))


def test_type22_anchors():
    fp = family_type22(F(2))
    assert fp.c == F(-37, 9)
    assert {x for x, _ in fp.points} == {F(5, 3), F(-5, 3)}
    assert fp.aux["sigma"] == F(11, 6)
    assert fp.c == F(-3, 4) - fp.aux["sigma"] ** 2
    fp = family_type22(F(3))
    assert fp.c == F(-37, 16)
    assert {x for x, _ in fp.points} == {F(5, 4), F(-5, 4)}
    assert fp.aux["sigma"] == F(5, 4)
    with pytest.raises(ExcludedParameterError):
        family_type22(F(0))


def test_type32_anchor():
    fp = family_type32()
    assert fp.c == F(-29, 16)
    assert fp.points == ((F(3, 4), (3, 2)), (F(-3, 4), (3, 2)))
    f = QuadMap(fp.c)
    assert orbit_classify(f, F(3, 4)) == (3, 2)
    assert orbit_classify(f, F(-3, 4)) == (3, 2)
    assert validate_family(fp).ok


def test_make_family_point_dispatch():
    assert make_family_point("t32").c == F(-29, 16)
    assert make_family_point("p1", F(1)).c == F(-3, 4)
    with pytest.raises(ValueError):
        make_family_point("t32", F(1))
    with pytest.raises(ValueError):
        make_family_point("p1")
    with pytest.raises(ValueError):
        make_family_point("nope", F(1))


def _random_admissible(rng, excluded):
    while True:
        q = F(rng.randint(-60, 60), rng.randint(1, 12))
        if q not in excluded:
            return q


@pytest.mark.parametrize("maker, excluded", [
    (family_period1, ()),
    (family_period2, (F(0),)),
    (family_period3, (F(0), F(-1))),
    (family_period1and2, (F(0), F(1), F(-1))),
    (family_type12, (F(1), F(-1))),
    (family_type22, (F(0), F(1), F(-1))),
])
def test_random_parameters_validate(maker, excluded):
    rng = random.Random(hash(maker.__name__) & 0xFFFF)
    for _ in range(40):
        fp = maker(_random_admissible(rng, excluded))
        # each promised orbit type is the pair (period, tail) of two ints
        assert all(type(t) is tuple and [type(n) for n in t] == [int, int]
                   for _, t in fp.points), fp
        report = validate_family(fp)
        assert report.ok, (fp, report.checks)


def test_excluded_values_are_denominator_roots():
    # the exclusions are precisely where the formula denominators vanish;
    # check divisibility symbolically on the denominators as polynomials
    x = Poly.x()
    c_denominators = {
        family_period3: 4 * x ** 2 * (x + 1) ** 2,
        family_period1and2: 4 * (x * x - 1) ** 2,
        family_type12: (x * x - 1) ** 2,
        family_type22: (x * x - 1) ** 2,
    }
    vanishing = {
        family_period3: x * (x + 1),
        family_period1and2: x * x - 1,
        family_type12: x * x - 1,
        family_type22: x * x - 1,
    }
    for fam, den in c_denominators.items():
        factor = vanishing[fam]
        assert (den % factor).is_zero()
        for root in ((F(0), F(-1)) if fam is family_period3 else (F(1), F(-1))):
            assert den(root) == 0


def test_cross_family_cycle_exclusions():
    rng = random.Random(99)
    # period-3 maps never carry rational fixed points or 2-cycles
    for _ in range(8):
        tau = _random_admissible(rng, (F(0), F(-1)))
        g = preper_points(QuadMap(family_period3(tau).c))
        periods = {m for m, n in g.orbit_types().values() if n == 0}
        assert periods <= {3}
    # depth-2-over-fixed maps never carry rational 2- or 3-cycles
    for _ in range(8):
        eta = _random_admissible(rng, (F(1), F(-1)))
        g = preper_points(QuadMap(family_type12(eta).c))
        periods = {m for m, n in g.orbit_types().values() if n == 0}
        assert periods <= {1}
    # depth-2-over-2-cycle maps never carry rational fixed points or 3-cycles
    for _ in range(8):
        nu = _random_admissible(rng, (F(0), F(1), F(-1)))
        g = preper_points(QuadMap(family_type22(nu).c))
        periods = {m for m, n in g.orbit_types().values() if n == 0}
        assert periods <= {2}


def test_corrupted_family_point_fails_validation():
    # adding 1 to c breaks the promises; the failing rows read every branch
    # of the orbit-type text, divergent included
    rows = {}
    for fp in (family_period3(F(1)), family_type12(F(2))):
        bad = FamilyPoint(fp.family, fp.parameter, fp.c + 1, fp.points, fp.aux)
        report = validate_family(bad)
        assert not report.ok
        rows.update((c.id, (c.status, c.value)) for c in report.checks)
    assert rows["orbit(5/4)"] == ("fail", "expected periodic(3), got type 2_2")
    assert rows["orbit(-1/4)"] == ("fail", "expected periodic(3), got periodic(2)")
    assert rows["orbit(-7/4)"] == ("fail", "expected periodic(3), got divergent")
    assert rows["orbit(4/3)"] == rows["orbit(-4/3)"] == \
        ("fail", "expected type 1_2, got divergent")
    assert rows["image is minus a cycle point"] == \
        ("fail", "-f(-4/3) = -5/3 classified divergent")
    # a pair whose image is minus a preperiodic point that is not periodic
    fake = FamilyPoint("t12", None, F(-29, 16), ((F(-5, 4), (1, 2)), (F(5, 4), (1, 2))))
    row = validate_family(fake)["image is minus a cycle point"]
    assert (row.status, row.value) == ("fail", "-f(-5/4) = 1/4 classified type 3_1")


def test_reversed_3_cycle_yields_orientation_warning():
    fp = family_period3(F(1))
    x1, x2, x3 = fp.points
    reversed_fp = FamilyPoint(fp.family, fp.parameter, fp.c, (x1, x3, x2), fp.aux)
    report = validate_family(reversed_fp)
    warning = "3-cycle realized in reverse orientation x1 -> x3 -> x2"
    assert report.ok
    assert report["3-cycle permutation"].note == warning
    assert _family_payload(reversed_fp)["warnings"] == [warning]
    assert _family_payload(fp)["warnings"] == []
