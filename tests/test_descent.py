import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from oracles import brute_roots_mod_p, count_stable_pairs_brute
from preper import descent
from preper.descent import (
    SEXTIC,
    TABLE_ELEMENTS,
    element,
    factorization_identities,
    local_743_analysis,
    local_two_torsion_count,
    mordell_weil_report,
    table1_check,
)
from preper.exactmath import FpPoly, FqElem, Poly, resultant

F = Fraction


def test_table1_norms():
    rep = table1_check()
    assert rep.ok
    expected = {"u1": 1, "u2": 1, "minus_one": 1, "alpha": 8,
                "beta1": 743, "beta2": 743 ** 2, "beta3": 743 ** 2}
    for name, want in expected.items():
        assert resultant(SEXTIC, element(name)) == want


def test_factorization_identities():
    rep = factorization_identities()
    assert rep.ok
    alpha, u1 = element("alpha"), element("u1")
    assert -(alpha * alpha) * u1 % SEXTIC == 2
    b1, b2, b3 = element("beta1"), element("beta2"), element("beta3")
    assert b1 * b1 * b2 * b3 % SEXTIC == 743


def test_perturbed_alpha_breaks_identity():
    bad_rep, _ = TABLE_ELEMENTS["alpha"]
    bad = bad_rep + 1
    assert -(bad * bad) * element("u1") % SEXTIC != 2


def test_local_743_analysis():
    rep = local_743_analysis()
    assert rep.ok
    assert rep["l743-2torsion"].value == 4
    # pin the computed direction: the square sits at the 458+44i factor
    note = rep["l743-2mT"].note
    assert "458+44i" in note


def test_root_images_are_roots():
    gp = FpPoly.from_poly(SEXTIC, 743)
    assert gp.eval_fq(FqElem(743, (330, 2))).is_zero()
    assert gp.eval_fq(FqElem(743, (458, 44))).is_zero()


def test_743_certificate_agrees_with_root_exhaustion():
    # g mod 743 = (x - r)^2 q1 q2 needs exactly one root r in F_743, a double
    # one, and two quadratics with no root in F_743
    g = list(SEXTIC.coeffs)
    dg = [i * c for i, c in enumerate(g)][1:]
    roots = brute_roots_mod_p(g, 743)
    assert len(roots) == 1 and roots[0] in brute_roots_mod_p(dg, 743)
    quads = local_743_analysis()["l743-distinct-factors"].value
    assert len(quads) == 2 and quads[0] != quads[1]
    for q in quads:
        assert len(q) == 3 and brute_roots_mod_p(q, 743) == []


@pytest.mark.parametrize("images", [((330, 2), (330, 2)), ((331, 2), (458, 44))])
def test_743_shape_fails_on_wrong_root_images(monkeypatch, images):
    monkeypatch.setattr(descent, "ROOT_IMAGES", tuple(FqElem(743, image) for image in images))
    rep = local_743_analysis()
    assert rep["l743-shape"].status == "fail"
    assert rep["l743-shape"].value is None
    # the 2-torsion count reads the certified shape, so it fails with it
    assert rep["l743-2torsion"].status == "fail"
    assert rep["l743-2torsion"].value is None


def test_two_torsion_counts():
    assert local_two_torsion_count([(2, 1), (2, 1), (2, 1)]) == 4
    assert local_two_torsion_count([(1, 1)] * 6) == 16
    assert local_two_torsion_count([(3, 1), (3, 1)]) == 1
    assert local_two_torsion_count([(1, 2), (2, 1), (2, 1)]) == 4  # ramified reading
    assert local_two_torsion_count([(6, 1)]) == 1
    with pytest.raises(ValueError):
        local_two_torsion_count([(2, 1), (2, 1)])


def test_two_torsion_matches_brute_for_all_shapes():
    # every multiset of local degrees summing to 6
    shapes = set()
    for k in range(1, 7):
        for combo in combinations_with_replacement(range(1, 7), k):
            if sum(combo) == 6:
                shapes.add(combo)
    for degrees in sorted(shapes):
        formula = local_two_torsion_count([(d, 1) for d in degrees])
        brute = count_stable_pairs_brute(list(degrees)) + 1
        assert formula == brute, degrees


def test_norm_of_table_elements_stable_under_representative_shift():
    rng = random.Random(21)
    for name, (poly, want) in TABLE_ELEMENTS.items():
        noise = Poly([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)])
        shifted = poly + SEXTIC * noise
        assert resultant(SEXTIC, shifted) == want


def test_mordell_weil_report_structure():
    rep = mordell_weil_report()
    assert rep.ok
    statuses = {c.status for c in rep.checks}
    assert "external-dependency" in statuses
    assert rep["mw-conclusion"].status == "external-dependency"
