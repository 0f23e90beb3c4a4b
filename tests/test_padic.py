from fractions import Fraction

import pytest

from preper.curves import CurveModel
from preper.exactmath import Poly, valuation
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
    assert xi.coeffs[0] == 1
    assert xi.coeffs[1] == F(-3, 8)
    assert xi.coeffs[4] == F(15269, 2097152)
    assert xi.coeffs[:5] == PRINTED_XI


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
        xs = list(xi.coeffs)
        acc = [F(0)] * (order + 1)
        for c in reversed(C1_32.g.coeffs):
            acc = mul(acc, xs)
            acc[0] += c
        target = [F(9), F(-6), F(1)] + [F(0)] * max(0, order - 2)
        assert acc == target[: order + 1]


def test_branch_series_denominators_are_powers_of_two():
    xi = branch_series(10)
    for c in xi.coeffs:
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


def test_chabauty_determinant_exact_congruence():
    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    assert delta.coeffs == {1: (54, 4), 2: (0, 4), 3: (27, 4)}
    assert delta.tail_floor == 4


def test_chabauty_determinant_degenerate_rows():
    zero = chabauty_determinant(L1_SERIES, L2_SERIES, 0, 0)
    assert all(res == 0 for res, _ in zero.coeffs.values())
    same = chabauty_determinant(L1_SERIES, L1_SERIES, 5, 5)
    assert all(res == 0 for res, _ in same.coeffs.values())


def test_chabauty_determinant_precision_soundness():
    # shifting the inputs by multiples of 3^4 cannot change the output
    shifted_l1 = PadicSeries(3, {i: ((r + 81 * 7) % 3 ** 4, e)
                                 for i, (r, e) in L1_SERIES.coeffs.items()}, tail_floor=4)
    a = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    b = chabauty_determinant(shifted_l1, L2_SERIES, ELL1 + 81, ELL2)
    assert a.coeffs == b.coeffs


def test_chabauty_determinant_rejects_mixed_precision():
    short = PadicSeries(3, {1: (66, 2)}, tail_floor=2)
    with pytest.raises(PrecisionMismatchError):
        chabauty_determinant(short, L2_SERIES, ELL1, ELL2)
    with pytest.raises(PrecisionMismatchError):
        chabauty_determinant(L1_SERIES, PadicSeries(5, {1: (1, 4)}, tail_floor=4),
                             ELL1, ELL2)


def test_strassman_bounds():
    theta = THETA_SERIES["Q"]
    assert strassman_bound(theta) == 1
    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    assert strassman_bound(delta) == 3


def test_strassman_indeterminate_cases():
    # nothing certified: all residues vanish to stated precision
    s = PadicSeries(3, {1: (0, 2), 2: (0, 2)}, tail_floor=2)
    assert strassman_bound(s) is INDETERMINATE
    # minimal valuation not below the tail floor
    s = PadicSeries(3, {1: (3, 2)}, tail_floor=1)
    assert strassman_bound(s) is INDETERMINATE
    # a zero residue with low precision could undercut the minimum
    s = PadicSeries(3, {1: (3, 2), 5: (0, 1)}, tail_floor=3)
    assert strassman_bound(s) is INDETERMINATE


def test_strassman_monotone_in_precision():
    base = PadicSeries(3, {1: (3, 2), 3: (9, 3)}, tail_floor=1)
    assert strassman_bound(base) is INDETERMINATE  # floor equals the minimum
    better_floor = PadicSeries(3, base.coeffs, tail_floor=2)
    assert strassman_bound(better_floor) == 1
    even_better = PadicSeries(3, base.coeffs, tail_floor=5)
    assert strassman_bound(even_better) == 1  # more precision never raises it


def test_subtraction_claims_no_precision_beyond_the_tail_floor():
    # with tail_floor 0 an unlisted coefficient is unknown, so index 2 of
    # the difference is unknown too and is dropped, not reported as 6 mod 9
    diff = PadicSeries(3, {1: (1, 2)}) - PadicSeries(3, {1: (1, 2), 2: (3, 2)}, tail_floor=3)
    assert diff.coeffs == {1: (0, 2)}
    assert diff.tail_floor == 0
    # an unlisted coefficient counts as 0 mod p**tail_floor
    diff = (PadicSeries(3, {1: (1, 3)}, tail_floor=2)
            - PadicSeries(3, {2: (4, 3)}, tail_floor=1))
    assert diff.coeffs == {1: (1, 1), 2: (5, 2)}
    assert diff.tail_floor == 1


def test_zero_accounting():
    rep = known_zero_accounting(3, [0, 1, 2])
    assert rep.ok
    rep = known_zero_accounting(1, [0])
    assert rep.ok
    partial = known_zero_accounting(3, [0, 2])
    assert not partial.ok  # not exhausted, no conclusion drawn
    with pytest.raises(ZeroInventoryError):
        known_zero_accounting(1, [0, 5])


def test_padic_report_all_green():
    rep = padic_report()
    assert rep.ok, [c.id for c in rep.failures]
