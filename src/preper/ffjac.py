"""Point counts of genus-2 curves over small finite fields, and one
Jacobian group law, Cantor's algorithm, over Q and F_p in genus 1 and 2.

Counting runs on plain ints, and a field of more than COUNT_BUDGET
elements raises BudgetError.  A table of the squares of F_p, built by
squaring every residue, decides each value of g: a root gives one point,
a nonzero square two.  Over F_{p^2} = F_p(i), i^2 = n a non-residue, the
count goes by the Taylor expansion c(T) = g(a + T) mod p at each a in
F_p, whose coefficients c_j(a) = sum_i C(i, j) g_i a^(i-j) are seven
polynomials in a, built once a call (_taylor_rows).  c_0(a) = g(a)
decides x = a, which gives one point at a root of g and two elsewhere,
since every element of F_p is a square in F_{p^2}.  The conjugate pair
a +- b i, b != 0, has the norm g(a + bi) g(a - bi) = c(bi) c(-bi), and
c(T) c(-T) is even in T: a polynomial R_a(nu) of degree <= 6 in
nu = T^2 = b^2 n, with r_t = sum_{i+j=2t} (-1)^i c_i c_j.  As b runs over
1..(p-1)/2, nu runs over the non-residues once each.  One int Horner of
R_a at nu then decides the whole pair: norm 0 adds 2 points, a nonzero
square adds 4 (g(x) is then a square in F_{p^2}, by Euler's criterion on
the norm, see exactmath.finitefield), and a non-square adds none.  That
is p(p-1)/2 single-int Horners for the p^2 elements of F_{p^2}.
At infinity y^2 = g6, the x^6 coefficient of g mod p: one point when it
is 0 (a quintic, or p divides the leading coefficient), two when it is a
square (over F_{p^2} always), and none otherwise.  Jacobian orders come from
the genus-2 relation

    #J(F_p) = (N1**2 + N2)/2 - p,   N1 = #C(F_p), N2 = #C(F_{p^2}),

and, wherever g has a root r mod p, independently from brute enumeration
of reduced Mumford divisors on the odd-degree model obtained by moving the
Weierstrass point (r, 0) to infinity, read from the Taylor rows at a = r.
Divisor classes live on y^2 = f(x) with f monic of degree 2g + 1, over Q
or F_p: such an odd model, or a MonicModel, as for the integral model of
the completed square of an elliptic curve (curves).
One Cantor code serves every ring and genus: the class of P = (x1, y1) is
(x - x1, y1), that of P1 + P2 is the cantor_add sum of two such classes,
and reduction stops at deg u <= g = deg f // 2.  Composition follows
Cantor's cases (Cantor, Math. Comp. 48, 1987): a doubling needs one gcd,
of u and 2v; coprime u1, u2 need one, of u1 and u2; any other pair needs
that gcd and one more with v1 + v2.  The two common cases use one Bezout
cofactor each: coprime u1, u2 with e1 u1 + e2 u2 = 1 give
v = v1 + e1 u1 (v2 - v1) mod u1 u2, and a doubling with gcd(u, 2v) = 1
and s1 u + s3 2v = 1 gives v = v + s3 (f - v^2) mod u^2.  The identity
is the neutral element outright: adding it returns the other operand,
and cantor_mul starts from the lowest set bit of n.  Over F_3 this
checks the identities:
[inf+ - inf-] reduces to a generator of a cyclic group of order 27 whose
ninth multiple is the class of the two off-cycle known points.
"""

from __future__ import annotations

import functools
from math import comb, gcd

from .curves import C1_32, CurveModel, CurvePoint
from .dynamics import BudgetError
from .exactmath import FpPoly, is_prime, xgcd
from .report import Report
from .values import Value, set_field

COUNT_BUDGET = 10 ** 6


def count_points(curve: CurveModel, p: int, k: int = 1) -> int:
    """#C(F_{p^k}) on the smooth model y^2 = g(x), deg g in {5, 6}, for a
    prime p and k in {1, 2}; k = 2 needs p odd.  Over F_p every x is
    tried; over F_{p^2} the Taylor rows of g at each a in F_p decide x = a,
    and each conjugate pair a +- T by one Horner on its norm c(T) c(-T)
    (see the module docstring)."""
    if not curve.is_plain_genus2():
        raise ValueError(f"{curve.label} is not a model y^2 = g(x) with deg g in {{5, 6}}")
    if k not in (1, 2):
        raise ValueError("extension degree must be 1 or 2")
    # the size test first: Miller-Rabin on a huge p takes seconds
    if p ** k > COUNT_BUDGET:
        raise BudgetError(f"field size {p**k} exceeds the enumeration budget")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k == 2 and p == 2:
        raise ValueError("F_4 via a quadratic non-residue is not available")
    gp = FpPoly.from_poly(curve.g, p)
    square = [False] * p
    for v in range(p):
        square[v * v % p] = True
    count = 0
    if k == 1:
        for x in range(p):
            v = gp(x)
            if not v:
                count += 1
            elif square[v]:
                count += 2
    else:
        pair_points = [2] + [4 if square[v] else 0 for v in range(1, p)]  # by the norm
        nonresidues = [v for v in range(1, p) if not square[v]]
        rows = _taylor_rows(gp.coeffs)
        for a in range(p):
            c0, c1, c2, c3, c4, c5, c6 = [_horner(row, a, p) for row in rows]
            count += 2 if c0 else 1  # every element of F_p is a square in F_{p^2}
            # r_t = sum_{i+j=2t} (-1)^i c_i c_j, written out for speed
            r0 = c0 * c0 % p
            r1 = (2 * c0 * c2 - c1 * c1) % p
            r2 = (2 * (c0 * c4 - c1 * c3) + c2 * c2) % p
            r3 = (2 * (c0 * c6 - c1 * c5 + c2 * c4) - c3 * c3) % p
            r4 = (2 * (c2 * c6 - c3 * c5) + c4 * c4) % p
            r5 = (2 * c4 * c6 - c5 * c5) % p
            r6 = c6 * c6 % p
            count += sum([pair_points[
                ((((((r6 * nu + r5) * nu + r4) * nu + r3) * nu + r2) * nu + r1) * nu + r0) % p]
                for nu in nonresidues])
    g6 = gp[6]  # y^2 = g6 at infinity; F_p is all squares in F_{p^2}
    return count + (2 * (k == 2 or square[g6]) if g6 else 1)


def _taylor_rows(g) -> list[list[int]]:
    """The Taylor coefficients c_0..c_6 of g(a + T) = sum_j c_j(a) T^j as
    polynomials in a, c_j(a) = sum_i C(i, j) g_i a^(i-j), for g given by
    its coefficients, lowest degree first; each row is highest power of a
    first, for _horner, and is empty above deg g."""
    return [[comb(i, j) * g[i] for i in range(len(g) - 1, j - 1, -1)] for j in range(7)]


def _horner(coeffs, x: int, p: int) -> int:
    """The polynomial with the given coefficients, highest degree first, at
    x, mod p."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc % p


def jacobian_order(curve: CurveModel, p: int) -> int:
    """#J(F_p) via the genus-2 zeta relation; needs good reduction at p."""
    if p == 2 or curve.disc.numerator % p == 0:
        raise ValueError(f"{p} is a prime of bad reduction for {curve.label}")
    n1 = count_points(curve, p, 1)
    n2 = count_points(curve, p, 2)
    half, odd = divmod(n1 * n1 + n2, 2)
    if odd:
        raise ArithmeticError(f"N1^2 + N2 = {n1 * n1 + n2} is odd at p = {p}")
    return half - p


def torsion_triviality_report() -> Report:
    """gcd of the Jacobian orders at 3 and 5 kills rational torsion."""
    rep = Report()
    j3 = jacobian_order(C1_32, 3)
    j5 = jacobian_order(C1_32, 5)
    rep.add("jac-order-3", "#J(F_3) = 27", j3 == 27, value=j3)
    rep.add("jac-order-5", "#J(F_5) = 43", j5 == 43, value=j5)
    rep.add("jac-torsion-gcd", "gcd(#J(F_3), #J(F_5)) = 1, so rational torsion "
            "injects into trivial groups and is trivial", gcd(j3, j5) == 1,
            note="injectivity of torsion reduction at odd good primes is cited theory")
    rep.add("jac-infinite-order", "[inf+ - inf-] therefore has infinite order "
            "unless it is zero, and it reduces to a generator mod 3", True,
            note="non-vanishing certified by the mod-3 computation below")
    return rep


# --- odd-degree models and Mumford arithmetic -------------------------------


class OddModel(Value):
    """y^2 = f(x) with f monic of degree 5 over F_p, plus the point map from
    the parent sextic model: (x, y) -> (a/(x-r), a^2 y/(x-r)^3), with the
    Weierstrass point (r, 0) sent to infinity and inf+- sent to x = 0."""

    __slots__ = ("f", "r", "scale")

    def __init__(self, f: FpPoly, r: int, scale: int):
        set_field(self, "f", f)
        set_field(self, "r", r)
        set_field(self, "scale", scale)  # a = g'(r), the leading coefficient before rescaling

    def to_odd(self, point: CurvePoint) -> tuple[int, int] | None:
        """Image of a point of the sextic model; None is the point at infinity."""
        p, r, a = self.f.p, self.r, self.scale
        if point.is_infinite:
            # y/x^3 tends to +-1; the image is (0, +-a^2)
            return (0, point.branch * a * a % p)
        x, yr = point.reduce(p)
        xr = (x - r) % p
        if xr == 0:
            return None  # the moved Weierstrass point
        inv = pow(xr, -1, p)
        return (a * inv % p, a * a * yr * inv ** 3 % p)


def odd_model_transform(curve: CurveModel, p: int, r: int) -> OddModel:
    """Move a root r of g mod p to infinity, producing a monic quintic."""
    if not curve.is_plain_genus2() or curve.g.degree != 6:
        raise ValueError("the transform expects a model y^2 = g(x) with deg g = 6")
    gp = FpPoly.from_poly(curve.g, p)
    if gp(r) != 0:
        raise ValueError(f"{r} is not a root of g mod {p}")
    # g(r + x) = a0 + a1 x + ... + a6 x^6 with a0 = gp(r) = 0, so
    # x^6 g(r + 1/x) = a1 x^5 + ... + a6; with a = a1, (u, v) -> (a u, a^2 v)
    # makes the quintic monic
    rev = [_horner(row, r, p) for row in _taylor_rows(gp.coeffs)][6:0:-1]
    a = rev[-1]  # = a1 = g'(r) mod p, nonzero for a simple root
    if a == 0:
        raise ValueError(f"{r} is a repeated root of g mod {p}")
    monic = [rev[i] * pow(a, 4 - i, p) % p if i < 5 else 1 for i in range(6)]
    # monic[i] multiplies x^i: f(x) = x^5 + sum rev[i] a^(4-i) x^i
    f = FpPoly(p, monic)
    return OddModel(f=f, r=r % p, scale=a % p)


class MonicModel(Value):
    """y^2 = f(x), f monic of odd degree over Q or F_p, with no point map."""

    __slots__ = ("f",)

    def __init__(self, f):
        set_field(self, "f", f)


class MumfordDivisor(Value):
    """Reduced divisor class (u, v) on a model y^2 = f(x) of genus
    g = deg f // 2: u monic, deg u <= g, deg v < deg u, and u | f - v^2."""

    __slots__ = ("model", "u", "v")

    def __init__(self, model, u, v):
        set_field(self, "model", model)
        set_field(self, "u", u)
        set_field(self, "v", v)
        f = self.model.f
        if self.u.is_zero() or self.u.lc != 1 or self.u.degree > f.degree // 2:
            raise ValueError("u must be monic of degree <= the genus")
        if not self.v.is_zero() and self.v.degree >= self.u.degree:
            raise ValueError("v must have degree below deg u")
        if not ((f - self.v * self.v) % self.u).is_zero():
            raise ValueError("u does not divide f - v^2")

    def is_identity(self) -> bool:
        return self.u.degree == 0


def divisor_identity(model) -> MumfordDivisor:
    return MumfordDivisor(model, model.f._new((1,)), model.f._new(()))


def point_class(model, x, y) -> MumfordDivisor:
    """Class of P - infinity for the affine point P = (x, y): u = X - x, v = y."""
    return MumfordDivisor(model, model.f._new((-x, 1)), model.f._new((y,)))


def divisor_from_points(model, points) -> MumfordDivisor:
    """Class of sum(P_i) - n*infinity for affine points P_i, the cantor_add
    sum of their one-point classes."""
    classes = [point_class(model, x, y) for x, y in points]
    if not classes:
        return divisor_identity(model)
    return functools.reduce(cantor_add, classes)


def cantor_add(d1: MumfordDivisor, d2: MumfordDivisor) -> MumfordDivisor:
    """Composition and reduction on a model y^2 = f(x) of genus
    g = deg f // 2, over Q or F_p.

    Composition by Cantor's cases: with d = gcd(u1, u2, v1 + v2) =
    s1 u1 + s2 u2 + s3 (v1 + v2), the sum is u = u1 u2 / d^2 and
    v = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / d mod u.  The identity
    as either operand returns the other one.  A doubling takes one
    xgcd(u, 2v); when it is 1 = s1 u + s3 2v, s1 u = 1 - 2 s3 v turns v
    into v + s3 (f - v^2).  Coprime u1 and u2 take one xgcd(u1, u2), and
    e2 u2 = 1 - e1 u1 turns v into v1 + e1 u1 (v2 - v1).  Any other pair,
    and a doubling with a common factor of u and 2v, take the general
    formula, an xgcd(u1, u2) and then one with v1 + v2.  One reduction
    loop, down to deg u <= g, follows every case.  The sum is symmetric
    in d1 and d2, as u = u1 u2 / d^2 and the CRT solution v are."""
    if d1.model != d2.model:
        raise ValueError("divisors live on different models")
    if d1.is_identity():
        return d2
    if d2.is_identity():
        return d1
    f = d1.model.f
    genus = f.degree // 2
    u1, v1, u2, v2 = d1.u, d1.v, d2.u, d2.v
    if u1 == u2 and v1 == v2:
        d, s1, s3 = xgcd(u1, v1 + v1)
        if d.degree == 0:
            u = u1 * u1
            v = (v1 + s3 * (f - v1 * v1)) % u
        else:
            u = (u1 * u1) // (d * d)
            v = ((s1 * u1 * v1 + s3 * (v1 * v1 + f)) // d) % u
    else:
        e, e1, e2 = xgcd(u1, u2)
        if e.degree == 0:
            u = u1 * u2
            v = (v1 + e1 * u1 * (v2 - v1)) % u
        else:
            d, c1, c2 = xgcd(e, v1 + v2)
            s1, s2, s3 = c1 * e1, c1 * e2, c2
            u = (u1 * u2) // (d * d)  # monic, as u1, u2 and d are
            num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
            v = (num // d) % u
    while u.degree > genus:
        u = ((f - v * v) // u).monic()
        v = (-v) % u
    return MumfordDivisor(d1.model, u, v)


def cantor_neg(d: MumfordDivisor) -> MumfordDivisor:
    return MumfordDivisor(d.model, d.u, (-d.v) % d.u)


def cantor_mul(n: int, d: MumfordDivisor) -> MumfordDivisor:
    """n * d by doubling and adding, from the lowest set bit of n: the sum
    starts as that multiple of d itself, never as the identity plus it,
    and no doubling goes past the top bit."""
    if n < 0:
        return cantor_mul(-n, cantor_neg(d))
    if n == 0:
        return divisor_identity(d.model)
    base = d
    while not n & 1:
        base = cantor_add(base, base)
        n >>= 1
    acc = base
    n >>= 1
    while n:
        base = cantor_add(base, base)
        if n & 1:
            acc = cantor_add(acc, base)
        n >>= 1
    return acc


def divisor_order(d: MumfordDivisor, bound: int = 1000) -> int:
    acc = d
    for n in range(1, bound + 1):
        if acc.is_identity():
            return n
        acc = cantor_add(acc, d)
    raise RuntimeError(f"order exceeds {bound}")


def enumerate_jacobian(model: OddModel) -> list[MumfordDivisor]:
    """All reduced Mumford pairs: the identity, one per affine point, and
    every (monic quadratic u, v) with u | f - v^2.  Independent of any
    point counting, this is the brute-force class-group oracle."""
    p, f = model.f.p, model.f
    out = [divisor_identity(model)]
    for x in range(p):
        for y in range(p):
            if (y * y - f(x)) % p == 0:
                out.append(point_class(model, x, y))
    for u1 in range(p):
        for u0 in range(p):
            u = FpPoly(p, (u0, u1, 1))
            for b1 in range(p):
                for b0 in range(p):
                    v = FpPoly(p, (b0, b1))
                    if ((f - v * v) % u).is_zero():
                        out.append(MumfordDivisor(model, u, v))
    return out


# --- the mod-3 divisor identities -------------------------------------------

KNOWN_POINTS = {
    "Q+": CurvePoint.affine(-1, 1),
    "Q-": CurvePoint.affine(-1, -1),
    "R+": CurvePoint.affine(0, 1),
    "R-": CurvePoint.affine(0, -1),
    "S+": CurvePoint.affine(1, 3),
    "S-": CurvePoint.affine(1, -3),
    "inf+": CurvePoint.infinite(+1),
    "inf-": CurvePoint.infinite(-1),
}


def verify_divisor_identities_mod3() -> Report:
    """Order-27 cyclicity, the 9D and 27D identities, and the reduction
    pattern of the eight known points."""
    rep = Report()
    model = odd_model_transform(C1_32, 3, 1)
    rep.add("f3-odd-model", "g mod 3 has the root 1, giving a monic quintic model",
            model.f.degree == 5 and model.f.lc == 1, value=list(model.f.coeffs))

    # D = [inf+ - inf-] = [inf+ + inf+] in the usual shorthand; on the odd
    # model inf+- land at x = 0, and iota(inf-) = inf+, so D is the class of
    # twice the image of inf+.
    a_plus = model.to_odd(KNOWN_POINTS["inf+"])
    a_minus = model.to_odd(KNOWN_POINTS["inf-"])
    rep.add("f3-infinity-images", "inf+ and inf- land at x = 0 with opposite signs",
            a_plus[0] == 0 and a_minus == (0, (-a_plus[1]) % 3), value=[a_plus, a_minus])
    D = divisor_from_points(model, [a_plus, a_plus])

    order = divisor_order(D, 60)
    rep.add("f3-generator-order", "the reduction of [inf+ - inf-] has order 27",
            order == 27, value=order)

    total = len(enumerate_jacobian(model))
    rep.add("f3-class-count", "there are exactly 27 reduced divisor classes",
            total == 27, value=total)
    rep.add("f3-cyclic", "order-27 element in a group of order 27: J(F_3) is cyclic",
            order == total == 27)

    target = divisor_from_points(
        model, [model.to_odd(KNOWN_POINTS["Q-"]), model.to_odd(KNOWN_POINTS["R+"])])
    nine = cantor_mul(9, D)
    sign = "+1" if nine == target else ("-1" if nine == cantor_neg(target) else "none")
    rep.add("f3-9d-identity", "9 * D equals the reduced class [Q- + R+]",
            sign in ("+1", "-1"), value=f"transport sign {sign}",
            note="either sign certifies the identity up to the transport convention")
    rep.add("f3-27d-identity", "27 * D is the identity, matching [S- + S-] "
            "reducing to twice a Weierstrass point",
            cantor_mul(27, D).is_identity())

    images = {name: pt.reduce(3) for name, pt in KNOWN_POINTS.items()}
    collisions: dict[tuple, list[str]] = {}
    for name, img in images.items():
        collisions.setdefault(img, []).append(name)
    collided = sorted(tuple(sorted(v)) for v in collisions.values() if len(v) > 1)
    rep.add("f3-reductions", "the eight known points reduce to seven distinct images, "
            "the only collision being the pair at the Weierstrass point (1, 0)",
            collided == [("S+", "S-")] and images["S+"] == (1, 0),
            value={n: str(i) for n, i in sorted(images.items())},
            note="the colliding pair is S+- = (1, +-3); some accounts label it R+-")
    return rep


def jacobian_report() -> Report:
    """Counts, orders, the zeta/brute cross-check, and the mod-3 identities."""
    rep = Report()
    n1 = count_points(C1_32, 3)
    rep.add("count-f3", "#C(F_3) = 7 (five affine points plus two at infinity)",
            n1 == 7, value=n1)
    n2 = count_points(C1_32, 3, 2)
    rep.add("count-f9", "#C(F_9) = 11", n2 == 11, value=n2)
    rep.extend(torsion_triviality_report())
    for p in (3, 7):
        gp = FpPoly.from_poly(C1_32.g, p)
        root = next(r for r in range(p) if gp(r) == 0)
        model = odd_model_transform(C1_32, p, root)
        brute = len(enumerate_jacobian(model))
        zeta = jacobian_order(C1_32, p)
        rep.add(f"brute-vs-zeta-{p}",
                f"divisor-class enumeration matches the zeta order at p = {p}",
                brute == zeta, value={"enumerated": brute, "zeta": zeta})
    rep.extend(verify_divisor_identities_mod3())
    return rep
