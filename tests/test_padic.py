from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import newton_branch, tracked_scale, tracked_strassman_bound, tracked_sub
from preper.curves import CurveModel
from preper.exactmath import Poly, discriminant, valuation
from preper.padic import (
    ELL1,
    ELL2,
    INDETERMINATE,
    L1_SERIES,
    L2_SERIES,
    THETA_SERIES,
    PRINTED_XI,
    PadicSeries,
    PrecisionMismatchError,
    SingularBranchError,
    ZeroInventoryError,
    branch_series,
    chabauty_determinant,
    known_zero_accounting,
    padic_report,
    strassman_bound,
)

F = Fraction


def test_branch_series_printed_coefficients():
    xi = branch_series(8)
    assert xi[0] == 1
    assert xi[1] == F(-3, 8)
    assert xi[4] == F(15269, 2097152)
    assert xi[:5] == PRINTED_XI


def test_branch_series_is_the_tuple_of_its_coefficients():
    for order in range(4):
        xi = branch_series(order)
        assert type(xi) is tuple and len(xi) == order + 1
        assert all(type(c) is F for c in xi)


def test_branch_series_self_consistency_at_every_order():
    from preper.curves import C1_32
    for order in range(1, 11):
        xi = branch_series(order)
        # g(xi(t)) - (t - 3)^2 must vanish through t^order exactly
        acc = [F(0)] * (order + 1)
        def mul(a, b):
            out = [F(0)] * (order + 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if i + j <= order and y:
                            out[i + j] += x * y
            return out
        xs = list(xi)
        acc = [F(0)] * (order + 1)
        for c in reversed(C1_32.g.coeffs):
            acc = mul(acc, xs)
            acc[0] += c
        target = [F(9), F(-6), F(1)] + [F(0)] * max(0, order - 2)
        assert acc == target[: order + 1]


def test_branch_series_denominators_are_powers_of_two():
    xi = branch_series(10)
    for c in xi:
        d = c.denominator
        while d % 2 == 0:
            d //= 2
        assert d == 1
        if c:
            assert valuation(c, 3) >= 0


def test_branch_series_rejects_singular_base():
    # y^2 = x^3 has g'(0) = 0 at the cusp-like base (0, 0): not even on a
    # smooth model; use a curve where g'(x0) = 0 at a valid point instead
    curve = CurveModel("flat", Poly((4, 0, 0, 0, 0, 0, -1)))
    # g(x) = 4 - x^6, base (0, 2): g'(0) = 0
    with pytest.raises(SingularBranchError):
        branch_series(4, curve=curve, base=(F(0), F(2)))
    with pytest.raises(ValueError):
        branch_series(4, base=(F(1), F(2)))  # not on the curve


@st.composite
def _branch_curves(draw):
    # an integral g of degree 5 or 6 through a drawn base point (x0, y0):
    # the constant term is set so that g(x0) = y0^2
    degree = draw(st.sampled_from((5, 6)))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=degree + 1, max_size=degree + 1))
    assume(coeffs[-1] != 0)
    x0, y0 = draw(st.integers(-4, 4)), draw(st.integers(-6, 6))
    coeffs[0] += y0 * y0 - Poly(coeffs)(x0)
    g = Poly(coeffs)
    assume(g.derivative()(x0) != 0)
    assume(discriminant(g) != 0)  # a singular model is no curve
    return CurveModel("random", g), (x0, y0)


@settings(max_examples=50, deadline=None)
@given(_branch_curves())
def test_branch_series_matches_newton_iteration(model):
    # the branch is unique, so every order is a prefix of the order-8 series
    curve, base = model
    newton = newton_branch(curve.g.coeffs, *base, 8)
    for order in range(9):
        assert list(branch_series(order, curve, base)) == newton[: order + 1], order


def test_chabauty_determinant_exact_congruence():
    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    assert delta.coeffs == ((1, 54), (2, 0), (3, 27))
    assert (delta.p, delta.r) == (3, 4)


def test_chabauty_determinant_degenerate_rows():
    zero = chabauty_determinant(L1_SERIES, L2_SERIES, 0, 0)
    assert all(res == 0 for _, res in zero.coeffs)
    same = chabauty_determinant(L1_SERIES, L1_SERIES, 5, 5)
    assert all(res == 0 for _, res in same.coeffs)


def test_chabauty_determinant_precision_soundness():
    # shifting the inputs by multiples of 3^4 cannot change the output
    shifted_l1 = PadicSeries(3, 4, {i: res + 81 * 7 for i, res in L1_SERIES.coeffs})
    a = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    b = chabauty_determinant(shifted_l1, L2_SERIES, ELL1 + 81, ELL2)
    assert a.coeffs == b.coeffs


def test_chabauty_determinant_rejects_mixed_precision():
    # the subtraction refuses series mod different powers or primes
    short = PadicSeries(3, 2, {1: 66})
    with pytest.raises(PrecisionMismatchError):
        chabauty_determinant(short, L2_SERIES, ELL1, ELL2)
    with pytest.raises(PrecisionMismatchError):
        chabauty_determinant(L1_SERIES, PadicSeries(5, 4, {1: 1}), ELL1, ELL2)
    with pytest.raises(PrecisionMismatchError):
        L1_SERIES - short
    with pytest.raises(ValueError):
        PadicSeries(3, 0, {1: 1})  # mod 3^0 nothing is known


@st.composite
def _single_precision_rows(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    r = draw(st.integers(1, 5))
    residues = st.integers(-3 * p ** r, 3 * p ** r)
    l1, l2 = (draw(st.dictionaries(st.integers(0, 9), residues, max_size=6)) for _ in "12")
    ell1, ell2 = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    return p, r, l1, l2, ell1, ell2


@settings(max_examples=300, deadline=None)
@given(_single_precision_rows())
def test_determinant_and_strassman_match_per_coefficient_precision(rows):
    # on series known to one precision, the package agrees with the oracle
    # that tracks a precision per coefficient and a tail floor
    p, r, l1, l2, ell1, ell2 = rows
    tracked = {name: ({i: (res, r) for i, res in s.items()}, r)
               for name, s in (("l1", l1), ("l2", l2))}
    coeffs, floor = tracked_sub(*tracked_scale(*tracked["l1"], p, ell2, r),
                                *tracked_scale(*tracked["l2"], p, ell1, r), p)
    assert floor == r and all(known == r for _, known in coeffs.values())
    delta = chabauty_determinant(PadicSeries(p, r, l1), PadicSeries(p, r, l2), ell1, ell2)
    assert delta.coeffs == tuple((i, res) for i, (res, _) in sorted(coeffs.items()))
    assert strassman_bound(delta) == tracked_strassman_bound(coeffs, floor, p)
    assert strassman_bound(PadicSeries(p, r, l1)) == tracked_strassman_bound(*tracked["l1"], p)


def test_strassman_bounds():
    theta = THETA_SERIES["Q"]
    assert strassman_bound(theta) == 1
    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    assert strassman_bound(delta) == 3


def test_strassman_indeterminate_cases():
    # nothing certified: all residues vanish to stated precision
    s = PadicSeries(3, 2, {1: 0, 2: 0})
    assert strassman_bound(s) is INDETERMINATE


def test_strassman_monotone_in_precision():
    coeffs = {1: 3, 3: 9}
    # mod 3 both residues vanish, so no valuation is known exactly
    assert strassman_bound(PadicSeries(3, 1, coeffs)) is INDETERMINATE
    for r in (2, 3, 5):
        assert strassman_bound(PadicSeries(3, r, coeffs)) == 1  # more precision never raises it


def test_zero_accounting():
    rep = known_zero_accounting(3, [0, 1, 2])
    assert rep.ok
    rep = known_zero_accounting(1, [0], prefix="theta-")
    assert rep.ok
    assert [c.id for c in rep.checks] == ["theta-zeros-within-bound", "theta-zeros-exhaust-bound"]
    partial = known_zero_accounting(3, [0, 2])
    assert not partial.ok  # not exhausted, no conclusion drawn
    with pytest.raises(ZeroInventoryError):
        known_zero_accounting(1, [0, 5])


def test_padic_report_all_green():
    rep = padic_report()
    assert rep.ok, [c.id for c in rep.failures]
