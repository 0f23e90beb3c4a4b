"""Truncated 3-adic series, the branch expansion on c1_32, and Strassman
root bounds.

Two kinds of series live here.  BranchSeries is an exact object: the
unique power series xi(t) in Q[[t]] with xi(0) = 1 and g(xi(t)) = (t-3)**2,
computed by Newton iteration on truncated rational series; its
coefficients happen to have only powers of 2 in their denominators, which
is what makes it 3-adically integral.  PadicSeries is a congruence object:
finitely many coefficients known modulo stated powers of p, plus a floor
on the valuation of every unlisted coefficient.

The Strassman bound is deliberately conservative about precision: a
residue of 0 mod p**r certifies only valuation >= r, never an exact
valuation, and the bound is declared indeterminate unless the minimal
valuation is pinned exactly and nothing else (listed or tail) could reach
it.  The logarithm data it consumes (coefficients of L1, L2 and the two
base logarithms mod 3**4, and the short theta congruences mod 3**2) are
transcribed constants from external formal-group formulas; everything
downstream of them is recomputed.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import C1_32
from .exactmath import Poly, valuation
from .report import Report
from .values import Value, set_field


# --- exact branch series ----------------------------------------------------


class BranchSeries(Value):
    """Truncated expansion x = xi(t) along a branch of y^2 = g(x)."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: tuple[Fraction, ...], order: int):
        set_field(self, "coeffs", coeffs)  # xi mod t^(order+1)
        set_field(self, "order", order)


def _truncate(s: Poly, order: int) -> Poly:
    """s mod t^(order+1)."""
    return Poly(s.coeffs[: order + 1])


def _series_inverse(s: Poly, order: int) -> Poly:
    """1/s mod t^(order+1), term by term; s needs a nonzero constant term."""
    c0 = s[0]
    if c0 == 0:
        raise ZeroDivisionError("series with zero constant term")
    out = [Fraction(1) / c0]  # a Fraction, so every later term is one too
    for n in range(1, order + 1):
        out.append(-sum(s[k] * out[n - k] for k in range(1, n + 1)) / c0)
    return Poly(out)


def _eval_poly_series(poly: Poly, xs: Poly, order: int) -> Poly:
    """poly(xs) mod t^(order+1), by Horner with truncation at every step."""
    acc = Poly()
    for c in reversed(poly.coeffs):
        acc = _truncate(acc * xs + c, order)
    return acc


class SingularBranchError(ValueError):
    pass


def branch_series(order: int, curve=C1_32, base=(Fraction(1), Fraction(-3))) -> BranchSeries:
    """Newton-solve g(x) = (t + y0)^2 for x as a series in t with x(0) = x0.

    The branch is uniquely determined because g'(x0) is a unit; each Newton
    step doubles the valid order.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    x0, y0 = Fraction(base[0]), Fraction(base[1])
    g, dg = curve.g, curve.g.derivative()
    if y0 * y0 != g(x0):
        raise ValueError("base point is not on the curve")
    if dg(x0) == 0:
        raise SingularBranchError("Newton step undefined: g'(x0) = 0")
    target = _truncate(Poly((y0 * y0, 2 * y0, 1)), order)  # (t + y0)^2
    xs = Poly((x0,))
    # Newton: x <- x - (g(x) - target)/g'(x); doubling convergence
    steps = max(1, (order + 1).bit_length() + 1)
    for _ in range(steps):
        fx = _eval_poly_series(g, xs, order) - target
        fpx = _eval_poly_series(dg, xs, order)
        xs = xs - _truncate(fx * _series_inverse(fpx, order), order)
    if _eval_poly_series(g, xs, order) != target:
        raise ArithmeticError("Newton iteration failed to close the branch equation")
    return BranchSeries(tuple(Fraction(xs[i]) for i in range(order + 1)), order)


# --- congruence series ------------------------------------------------------


class PadicSeries(Value):
    """Finitely many coefficients known mod p**r plus a tail valuation floor.

    coeffs maps index -> (residue, r) meaning the coefficient is congruent
    to residue modulo p**r; every unlisted coefficient has valuation at
    least tail_floor.
    """

    __slots__ = ("p", "coeffs", "tail_floor")

    def __init__(self, p: int, coeffs: dict[int, tuple[int, int]] | None = None,
                 tail_floor: int = 0):
        if tail_floor < 0:
            raise ValueError("tail valuation floor must be non-negative")
        norm = {}
        for i, (res, r) in (coeffs or {}).items():
            if r <= 0:
                raise ValueError("modulus exponent must be positive")
            norm[int(i)] = (res % p ** r, r)
        set_field(self, "p", p)
        set_field(self, "coeffs", norm)
        set_field(self, "tail_floor", tail_floor)

    def scale(self, scalar: int, known_mod: int) -> "PadicSeries":
        """Multiply by a constant known modulo p**known_mod."""
        out = {}
        for i, (res, r) in self.coeffs.items():
            r2 = min(r, known_mod)
            out[i] = (res * scalar % self.p ** r2, r2)
        return PadicSeries(self.p, out, min(self.tail_floor, known_mod))

    def __sub__(self, other: "PadicSeries") -> "PadicSeries":
        if self.p != other.p:
            raise ValueError("mixed primes")
        out = {}
        for i in sorted(set(self.coeffs) | set(other.coeffs)):
            # an unlisted coefficient is known only to be 0 mod p**tail_floor
            a, ra = self.coeffs.get(i, (0, self.tail_floor))
            b, rb = other.coeffs.get(i, (0, other.tail_floor))
            r = min(ra, rb)
            if r:
                out[i] = ((a - b) % self.p ** r, r)
        return PadicSeries(self.p, out, min(self.tail_floor, other.tail_floor))


class PrecisionMismatchError(ValueError):
    pass


def chabauty_determinant(l1_series: PadicSeries, l2_series: PadicSeries,
                         ell1: int, ell2: int, modulus_exp: int = 4) -> PadicSeries:
    """The 2x2 determinant  L1(n) * ell2 - L2(n) * ell1  with every input
    known modulo p**modulus_exp; the output carries the same precision."""
    p = l1_series.p
    if l2_series.p != p:
        raise PrecisionMismatchError("series live over different primes")
    for s in (l1_series, l2_series):
        if any(r != modulus_exp for _, r in s.coeffs.values()) or s.tail_floor != modulus_exp:
            raise PrecisionMismatchError(
                f"all coefficients must be known exactly mod {p}^{modulus_exp}")
    return l1_series.scale(ell2, modulus_exp) - l2_series.scale(ell1, modulus_exp)


INDETERMINATE = None


def strassman_bound(s: PadicSeries):
    """Largest index at which the minimal coefficient valuation is attained,
    i.e. the Strassman bound on zeros in Z_p; INDETERMINATE when the stated
    precision cannot pin it down.

    A residue of 0 mod p**r only certifies valuation >= r.  The bound is
    determinate when some coefficient has an exactly known valuation m,
    no zero-residue coefficient could undercut m, and the tail floor
    exceeds m.
    """
    exact: dict[int, int] = {}
    floors: dict[int, int] = {}
    for i, (res, r) in s.coeffs.items():
        if res % s.p ** r == 0:
            floors[i] = r
        else:
            v = valuation(res, s.p)
            if v < r:
                exact[i] = v
    if not exact:
        return INDETERMINATE
    m = min(exact.values())
    if m >= s.tail_floor:
        return INDETERMINATE
    if any(f <= m for f in floors.values()):
        return INDETERMINATE
    return max(i for i, v in exact.items() if v == m)


class ZeroInventoryError(ValueError):
    pass


def known_zero_accounting(bound: int, zeros, conclusion: str = "") -> Report:
    """Record an inventory of known zeros against a Strassman bound.

    More zeros than the bound would contradict the bound and raises; an
    inventory that exactly exhausts the bound proves there are no others.
    """
    zeros = sorted(set(zeros))
    if len(zeros) > bound:
        raise ZeroInventoryError(
            f"{len(zeros)} known zeros exceed the Strassman bound {bound}")
    rep = Report("zero inventory")
    exhausted = len(zeros) == bound
    rep.add("zeros-within-bound", f"{len(zeros)} known zeros fit under the bound {bound}",
            True, value=zeros)
    rep.add("zeros-exhaust-bound",
            "the inventory exhausts the bound, so no further zeros exist",
            exhausted, value={"bound": bound, "known": len(zeros)},
            note=conclusion if exhausted else "bound not exhausted; no conclusion")
    return rep


# --- transcribed 3-adic data for the Weierstrass residue class --------------

P = 3
MOD_EXP = 4  # everything below is known modulo 3^4 = 81

# formal logarithm of the branch divisor at t = 3n, coefficients in n
L1_SERIES = PadicSeries(P, {1: (66, MOD_EXP), 3: (54, MOD_EXP)}, tail_floor=MOD_EXP)
L2_SERIES = PadicSeries(P, {1: (66, MOD_EXP), 2: (27, MOD_EXP), 3: (72, MOD_EXP)},
                        tail_floor=MOD_EXP)
# logarithm of the reference divisor 27*[inf+ - inf-]
ELL1 = 3
ELL2 = 75

# short congruences for the non-Weierstrass residue classes, mod 3^2
THETA_SERIES = {
    "Q": PadicSeries(P, {1: (3, 2)}, tail_floor=2),
    "R": PadicSeries(P, {1: (6, 2)}, tail_floor=2),
    "inf": PadicSeries(P, {1: (6, 2)}, tail_floor=2),
}

PRINTED_XI = (Fraction(1), Fraction(-3, 8), Fraction(-31, 512),
              Fraction(105, 16384), Fraction(15269, 2097152))


def padic_report() -> Report:
    """Branch series, determinant congruence, Strassman bounds, and the
    zero inventories that pin down the rational points residue class by
    residue class."""
    rep = Report("3-adic analysis of c1_32")

    xi = branch_series(10)
    rep.add("xi-printed", "the first five branch coefficients match the printed values",
            xi.coeffs[:5] == PRINTED_XI, value=[str(c) for c in xi.coeffs[:5]])
    vals = [valuation(c, 3) if c else None for c in xi.coeffs]
    rep.add("xi-3-integral", "branch coefficients through t^10 are 3-integral",
            all(v is None or v >= 0 for v in vals), value=vals)

    delta = chabauty_determinant(L1_SERIES, L2_SERIES, ELL1, ELL2)
    expected = {1: (54, MOD_EXP), 2: (0, MOD_EXP), 3: (27, MOD_EXP)}
    rep.add("delta-congruence", "the determinant series is 54n + 27n^3 mod 3^4",
            delta.coeffs == expected,
            value={i: rv[0] for i, rv in sorted(delta.coeffs.items())})

    bound_delta = strassman_bound(delta)
    rep.add("delta-strassman", "Strassman bound 3 for the determinant series",
            bound_delta == 3, value=bound_delta)
    bound_theta = strassman_bound(THETA_SERIES["Q"])
    rep.add("theta-strassman", "Strassman bound 1 for the short congruence 3n mod 9",
            bound_theta == 1, value=bound_theta)

    inv_theta = known_zero_accounting(bound_theta, [0],
                                      conclusion="the known point is the only one in its class")
    for c in inv_theta.checks:
        c.id = "theta-" + c.id
    rep.extend(inv_theta)
    inv_delta = known_zero_accounting(
        bound_delta, [0, 1, 2],
        conclusion="points reducing to the Weierstrass class are among S-, W, S+; "
                   "of these only S- and S+ are rational")
    for c in inv_delta.checks:
        c.id = "delta-" + c.id
    rep.extend(inv_delta)
    return rep
