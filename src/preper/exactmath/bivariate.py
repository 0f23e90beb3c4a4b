"""Bivariate polynomials, rational maps, and curve function fields.

A BiPoly is a polynomial in two variables (x, y) stored nested: a tuple of
Polys in x indexed by the power of y, that is a polynomial in y over Q[x].
Its ring arithmetic is the one dense-polynomial code of
exactmath.polynomial, with Poly coefficients; BiPoly supplies only the
wrapping of scalar coefficients in Poly, and it has no division.
RationalMap is a quotient of two BiPolys.  Identity verification for maps
between curves happens inside CurveFunctionField, the quadratic extension
of Q(x) cut out by a relation

    y**2 = s(x)*y + t(x),

where arithmetic reduces every power of y on sight.  An element is one
triple of polynomials (a, b, d) over a common denominator, meaning
(a(x) + b(x)*y) / d(x) with d nonzero.  Sums cross-multiply (or just add
when the denominators are equal), products multiply the denominators, and
the inverse multiplies by the conjugate, a + b*s - b*y, over the norm
a**2 + a*b*s - b**2*t.  An element of Q(x) itself (b = 0) inverts to
(d, 0, a), and an operand from Q(x) skips the y-part products: an int,
Fraction or Poly c gives (a + c*d, b, d) and (c*a, c*b, d), and an element
(a2, 0, d2) the product (a*a2, b*a2, d*d2).  Every registered map has a
denominator in x alone, and curves.verify_map_pair checks its roundtrips
cross-multiplied, so a verification inverts only elements of Q(x); through
the norm a**2 instead of a, backward(forward) on q17 would reach degree 58,
not 27.  No gcd is taken and nothing is normalized, so two
triples of one element compare equal by cross-multiplication:
a1*d2 == a2*d1 and b1*d2 == b2*d1.  Equality of two map compositions
modulo a curve equation is then an exact polynomial identity, with no
Groebner machinery.

Every polynomial here is an exactmath Poly, whose integral coefficients are
ints (see exactmath.polynomial).  The registered maps and curve relations
have integer coefficients, so the triples (a, b, d) of a verification stay
integral, and every product and sum in it runs on int, never on Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from ..values import Value, set_field
from .polynomial import Poly, _DensePoly, _trim


class BiPoly(_DensePoly):
    """Polynomial in (x, y): coeffs[j] is the Poly-in-x multiplying y**j."""

    __slots__ = ()
    _SCALARS = (int, Fraction, Poly)

    @staticmethod
    def _normalize(coeffs) -> tuple:
        cs = []
        for c in coeffs:
            if isinstance(c, (int, Fraction)):
                c = Poly((c,))
            elif not isinstance(c, Poly):
                raise TypeError("BiPoly coefficients must be Poly in x")
            cs.append(c)
        return _trim(cs)

    @classmethod
    def x(cls) -> "BiPoly":
        return cls((Poly.x(),))

    @classmethod
    def y(cls) -> "BiPoly":
        return cls((Poly(), Poly((1,))))

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls((Poly((c,)),))

    def eval(self, xval, yval):
        """Horner in y then x over any commutative ring accepting Fractions."""
        acc = None
        for c in reversed(self.coeffs):
            cx = c(xval)
            acc = cx if acc is None else acc * yval + cx
        if acc is None:
            return 0 * xval
        return acc

    def __repr__(self):
        if self.is_zero():
            return "BiPoly(0)"
        parts = [f"({c!r})*y^{j}" if j else f"({c!r})" for j, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return " + ".join(parts)


class RationalMap(Value):
    """Quotient of two BiPolys, one coordinate of a curve map; a scalar
    enters as BiPoly.const(c)."""

    __slots__ = ("num", "den")

    def __init__(self, num: BiPoly, den: BiPoly = BiPoly.const(1)):
        if den.is_zero():
            raise ZeroDivisionError("rational map with zero denominator")
        set_field(self, "num", num)
        set_field(self, "den", den)

    def eval(self, xval, yval):
        """Evaluate num/den at ring elements; division must exist in the ring."""
        n = self.num.eval(xval, yval)
        d = self.den.eval(xval, yval)
        if isinstance(n, int) and isinstance(d, int):
            return Fraction(n, d)  # int / int would be a float
        return n / d

    def __repr__(self):
        return f"RationalMap(({self.num!r}) / ({self.den!r}))"


_ONE = Poly((1,))
_BASE = (int, Fraction, Poly)  # the operands that lie in Q(x) with denominator 1


class CurveFunctionField(Value):
    """Function field Q(x)[y] / (y**2 - s(x)*y - t(x)) of a plane curve.

    The curve y**2 + h(x)*y = g(x) has s = -h and t = g.
    """

    __slots__ = ("s", "t")

    def __init__(self, s: Poly, t: Poly):
        set_field(self, "s", s)
        set_field(self, "t", t)

    def x(self) -> "FieldElement":
        return FieldElement(self, Poly.x(), Poly(), _ONE)

    def y(self) -> "FieldElement":
        return FieldElement(self, Poly(), _ONE, _ONE)


class FieldElement(Value):
    """(a(x) + b(x)*y) / d(x) with d nonzero, reduced by the relation.

    The triple is never normalized, so one element has many triples;
    equality cross-multiplies.
    """

    __slots__ = ("field", "a", "b", "d")

    def __init__(self, field: CurveFunctionField, a: Poly, b: Poly, d: Poly):
        set_field(self, "field", field)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "d", d)

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def _lift(self, other):
        if isinstance(other, FieldElement):
            return other
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if isinstance(other, Poly):
            return FieldElement(self.field, other, Poly(), _ONE)
        return None

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a * o.d == o.a * self.d and self.b * o.d == o.b * self.d

    def __add__(self, other):
        if isinstance(other, _BASE):  # a + c*d over the same d
            return FieldElement(self.field, self.a + self.d * other, self.b, self.d)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if self.d == o.d:
            return FieldElement(self.field, self.a + o.a, self.b + o.b, self.d)
        return FieldElement(self.field, self.a * o.d + o.a * self.d,
                            self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _BASE):
            return FieldElement(self.field, self.a * other, self.b * other, self.d)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        e, q = (o, self) if self.b.is_zero() else (self, o)
        if q.b.is_zero():  # (a1 + b1 y) a2 / (d1 d2), with a2/d2 in Q(x)
            return FieldElement(self.field, e.a * q.a, e.b * q.a, e.d * q.d)
        # (a1 + b1 y)(a2 + b2 y) with y^2 = s y + t
        bb = self.b * o.b
        return FieldElement(self.field, self.a * o.a + bb * self.field.t,
                            self.a * o.b + self.b * o.a + bb * self.field.s, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        # the conjugate of y is s - y, and (a + b y)(a + b s - b y) is the norm;
        # on Q(x) (b = 0) the norm is a**2, and d/a is the inverse
        a, b, s = self.a, self.b, self.field.s
        norm = a if b.is_zero() else a * a + a * b * s - b * b * self.field.t
        if norm.is_zero():
            raise ZeroDivisionError("element is a zero divisor in the function field")
        if b.is_zero():
            return FieldElement(self.field, self.d, b, a)
        return FieldElement(self.field, self.d * (a + b * s), -(self.d * b), norm)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __repr__(self):
        return f"FieldElement(({self.a!r} + ({self.b!r})*y) / {self.d!r})"
