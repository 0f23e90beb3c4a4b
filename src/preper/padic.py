"""Truncated 3-adic series, the branch expansion on c1_32, and Strassman
root bounds.

Two kinds of series live here.  The branch series is exact: the unique
power series xi(t) in Q[[t]] with xi(0) = 1 and g(xi(t)) = (t-3)**2,
given as the tuple of its coefficients x_0..x_order.  The coefficient
x_n enters the t^n coefficient of g(xi) only as g'(x0) * x_n, and
g'(1) = 16 is a unit, so xi is solved one coefficient at a time; its
coefficients happen to have only powers of 2 in their denominators,
which is what makes it 3-adically integral.  PadicSeries is a
congruence object: the residues of finitely many coefficients modulo
one power p**r, every unlisted coefficient being 0 mod p**r.

A nonzero residue mod p**r has an exact valuation below r, while a zero
residue, listed or not, certifies only valuation >= r, so it can never
undercut the minimum: the Strassman bound reads the nonzero residues
alone.  The logarithm data it consumes (coefficients of L1, L2 and the
two base logarithms mod 3**4, and the short theta congruences mod 3**2)
are transcribed constants from external formal-group formulas;
everything downstream of them is recomputed.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import C1_32
from .exactmath import Poly, valuation
from .report import Report
from .values import Value, set_field


# --- exact branch series ----------------------------------------------------


def _truncate(s: Poly, order: int) -> Poly:
    """s mod t^(order+1)."""
    return Poly(s.coeffs[: order + 1])


def _mul_truncated(a: Poly, b: Poly, order: int) -> Poly:
    """a * b mod t^(order+1), forming only the coefficients up to t^order."""
    bs = b.coeffs
    out = [0] * (order + 1)
    for i, x in enumerate(a.coeffs[: order + 1]):
        if x:
            for j, y in enumerate(bs[: order + 1 - i], i):
                out[j] += x * y
    return Poly(out)


def _eval_poly_series(poly: Poly, xs: Poly, order: int) -> Poly:
    """poly(xs) mod t^(order+1), by Horner on truncated products."""
    acc = Poly()
    for c in reversed(poly.coeffs):
        acc = _mul_truncated(acc, xs, order) + c
    return acc


class SingularBranchError(ValueError):
    pass


def branch_series(order: int, curve=C1_32,
                  base=(Fraction(1), Fraction(-3))) -> tuple[Fraction, ...]:
    """Solve g(x) = (t + y0)^2 for x as a series in t with x(0) = x0, and
    return its coefficients x_0..x_order, the expansion mod t^(order+1).

    The t^n coefficient of g(x0 + x_1 t + ... + x_n t^n) is g'(x0) x_n
    plus terms in x_0..x_{n-1}, so while g'(x0) != 0 each x_n is read off
    in turn and the branch is unique.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x0, y0 = Fraction(base[0]), Fraction(base[1])
    g = curve.g
    dg0 = Fraction(g.derivative()(x0))
    if y0 * y0 != g(x0):
        raise ValueError("base point is not on the curve")
    if dg0 == 0:
        raise SingularBranchError("the branch is not a series in t: g'(x0) = 0")
    target = _truncate(Poly((y0 * y0, 2 * y0, 1)), order)  # (t + y0)^2
    xs = [x0]
    for n in range(1, order + 1):
        xs.append((target[n] - _eval_poly_series(g, Poly(xs), n)[n]) / dg0)
    if _eval_poly_series(g, Poly(xs), order) != target:
        raise ArithmeticError("the branch series does not close the branch equation")
    return tuple(xs)


# --- congruence series ------------------------------------------------------


class PrecisionMismatchError(ValueError):
    pass


class PadicSeries(Value):
    """The residues mod p**r of a series' coefficients.

    coeffs is a sorted tuple of (index, residue) pairs with residues in
    [0, p**r); every unlisted coefficient is 0 mod p**r.  The constructor
    takes a mapping or a sequence of pairs.
    """

    __slots__ = ("p", "r", "coeffs")

    def __init__(self, p: int, r: int, coeffs=()):
        if r < 1:
            raise ValueError("precision r must be at least 1")
        q = p ** r
        set_field(self, "p", p)
        set_field(self, "r", r)
        pairs = ((int(i), res % q) for i, res in dict(coeffs).items())
        set_field(self, "coeffs", tuple(sorted(pairs)))

    def scale(self, scalar: int) -> "PadicSeries":
        """Multiply by an integer constant."""
        return PadicSeries(self.p, self.r, [(i, res * scalar) for i, res in self.coeffs])

    def __sub__(self, other: "PadicSeries") -> "PadicSeries":
        if (self.p, self.r) != (other.p, other.r):
            raise PrecisionMismatchError(
                f"series mod {self.p}^{self.r} and {other.p}^{other.r} do not subtract")
        a, b = dict(self.coeffs), dict(other.coeffs)
        # an index listed in either operand stays listed
        return PadicSeries(self.p, self.r, {i: a.get(i, 0) - b.get(i, 0) for i in a | b})


def chabauty_determinant(l1_series: PadicSeries, l2_series: PadicSeries,
                         ell1: int, ell2: int) -> PadicSeries:
    """The 2x2 determinant  L1(n) * ell2 - L2(n) * ell1, modulo the one
    power of p that both series are known to."""
    return l1_series.scale(ell2) - l2_series.scale(ell1)


INDETERMINATE = None


def strassman_bound(s: PadicSeries):
    """Largest index at which the minimal coefficient valuation is attained,
    i.e. the Strassman bound on zeros in Z_p; INDETERMINATE when every
    residue is 0, so that no valuation is known exactly.

    The minimum m is taken over the nonzero residues, whose valuations are
    exact and below r; a zero residue only certifies valuation >= r > m.
    """
    vals = {i: valuation(res, s.p) for i, res in s.coeffs if res}
    if not vals:
        return INDETERMINATE
    m = min(vals.values())
    return max(i for i, v in vals.items() if v == m)


class ZeroInventoryError(ValueError):
    pass


def known_zero_accounting(bound: int, zeros, conclusion: str = "",
                          prefix: str = "") -> Report:
    """Record an inventory of known zeros against a Strassman bound, in
    rows whose ids start with `prefix`.

    More zeros than the bound would contradict the bound and raises; an
    inventory that exactly exhausts the bound proves there are no others.
    """
    zeros = sorted(set(zeros))
    if len(zeros) > bound:
        raise ZeroInventoryError(
            f"{len(zeros)} known zeros exceed the Strassman bound {bound}")
    rep = Report()
    exhausted = len(zeros) == bound
    rep.add(f"{prefix}zeros-within-bound", f"{len(zeros)} known zeros fit under the bound {bound}",
            True, value=zeros)
    rep.add(f"{prefix}zeros-exhaust-bound",
            "the inventory exhausts the bound, so no further zeros exist",
            exhausted, value={"bound": bound, "known": len(zeros)},
            note=conclusion if exhausted else "bound not exhausted; no conclusion")
    return rep


# --- transcribed 3-adic data for the Weierstrass residue class --------------

P = 3
MOD_EXP = 4  # everything below is known modulo 3^4 = 81

# formal logarithm of the branch divisor at t = 3n, coefficients in n
L1_SERIES = PadicSeries(P, MOD_EXP, {1: 66, 3: 54})
L2_SERIES = PadicSeries(P, MOD_EXP, {1: 66, 2: 27, 3: 72})
# logarithm of the reference divisor 27*[inf+ - inf-]
ELL1 = 3
ELL2 = 75

# short congruences for the non-Weierstrass residue classes, mod 3^2
THETA_SERIES = {
    "Q": PadicSeries(P, 2, {1: 3}),
    "R": PadicSeries(P, 2, {1: 6}),
    "inf": PadicSeries(P, 2, {1: 6}),
}

PRINTED_XI = (Fraction(1), Fraction(-3, 8), Fraction(-31, 512),
              Fraction(105, 16384), Fraction(15269, 2097152))


def padic_report() -> Report:
    """Branch series, determinant congruence, Strassman bounds, and the
    zero inventories that pin down the rational points residue class by
    residue class."""
    rep = Report()

    xi = branch_series(10)
    rep.add("xi-printed", "the first five branch coefficients match the printed values",
            xi[:5] == PRINTED_XI, value=[str(c) for c in xi[:5]])
    vals = [valuation(c, 3) if c else None for c in xi]
    rep.add("xi-3-integral", "branch coefficients through t^10 are 3-integral",
            all(v is None or v >= 0 for v in vals), value=vals)

    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    rep.add("delta-congruence", "the determinant series is 54n + 27n^3 mod 3^4",
            delta == PadicSeries(P, MOD_EXP, {1: 54, 2: 0, 3: 27}), value=dict(delta.coeffs))

    bound_delta = strassman_bound(delta)
    rep.add("delta-strassman", "Strassman bound 3 for the determinant series",
            bound_delta == 3, value=bound_delta)
    bound_theta = strassman_bound(THETA_SERIES["Q"])
    rep.add("theta-strassman", "Strassman bound 1 for the short congruence 3n mod 9",
            bound_theta == 1, value=bound_theta)

    rep.extend(known_zero_accounting(
        bound_theta, [0], conclusion="the known point is the only one in its class",
        prefix="theta-"))
    rep.extend(known_zero_accounting(
        bound_delta, [0, 1, 2],
        conclusion="points reducing to the Weierstrass class are among S-, W, S+; "
                   "of these only S- and S+ are rational", prefix="delta-"))
    return rep
