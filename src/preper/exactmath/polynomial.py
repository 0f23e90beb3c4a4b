"""Exact univariate polynomials over the rationals.

Coefficients are stored lowest degree first, so ``coeffs[i]`` multiplies
``x**i`` and the leading coefficient sits at the end of the tuple.  The
zero polynomial is the empty tuple.  Instances are immutable and hashable.
A coefficient is an ``int`` when it is integral and a ``Fraction`` only
when it is not: construction maps ``Fraction(n, 1)`` to ``n``.  Sums and
products of integral polynomials therefore run on Python integers, and
only a true division (in divmod, xgcd and the resultant) goes through
``Fraction``, since ``int / int`` would be a float.  There is no
rational-function type: a quotient of polynomials is kept unreduced over
a common denominator (see exactmath.bivariate), so the only gcd here is
xgcd.  Its one job is inversion in a number field Q[T]/(g): there an
element is a Poly reduced mod g, and xgcd(a, g) = (1, s, t) makes s the
inverse of a.

The resultant follows the convention

    Res(p, q) = lc(p)**deg(q) * prod q(alpha_i)   over the roots alpha_i of p,

which is the Sylvester determinant normalization.  With a monic modulus g
this makes Res(g, a) the norm of the class of a in Q[T]/(g), for any
representative a, so the norm table checks downstream come out with no
stray leading-coefficient powers.  The
discriminant is disc(p) = (-1)**(n(n-1)/2) * Res(p, p') / lc(p).  Both
are returned as a ``Fraction`` whatever the coefficient types.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def _coerce(c) -> int | Fraction:
    """An integral coefficient as int, a proper fraction as Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"polynomial coefficients must be rational, got {type(c).__name__}")


def _div(a, b) -> int | Fraction:
    """Exact quotient of two coefficients; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coerce(Fraction(a) / b)


class Poly:
    """Univariate polynomial with int or Fraction coefficients, lowest
    degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int | Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int | Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly((-_coerce(other),)))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        bs = other.coeffs
        out = [0] * (len(self.coeffs) + len(bs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(bs, i):
                    out[j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = Poly((1,)), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(1, len(rem) - len(other.coeffs) + 1)
        dlc = other.lc
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            c = _div(rem[-1], dlc)
            k = len(rem) - 1 - dd
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x):
        """Horner evaluation at a rational or at any ring element that
        supports addition and multiplication with int and Fraction.  A
        constant polynomial returns its bare coefficient, whatever x is."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return 0
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs) if i >= 1])

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with g = s*a + t*b and g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = Poly((1,)), Poly()
    t0, t1 = Poly(), Poly((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0.is_zero():
        inv = _div(1, r0.lc)
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q) = lc(p)**deg(q) * prod of q over the roots of p.

    Computed by the Euclidean remainder recursion; bilinear-multiplicative
    in factors and zero exactly when p and q share a root.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("resultant of two zero polynomials")
    if p.is_zero() or q.is_zero():
        # Res(0, q) with deg q = 0 is an empty product; otherwise zero.
        other = q if p.is_zero() else p
        return Fraction(1) if other.degree == 0 else Fraction(0)
    if p.degree == 0:
        return Fraction(p.lc) ** q.degree
    if q.degree == 0:
        return Fraction(q.lc) ** p.degree
    # Res(p, q) = (-1)^(dp*dq) lc(q)^(dp - dr) Res(q, r) with r = p mod q
    sign = -1 if (p.degree * q.degree) % 2 else 1
    r = p % q
    if r.is_zero():
        return Fraction(0)
    return sign * q.lc ** (p.degree - r.degree) * resultant(q, r)


def discriminant(p: Poly) -> Fraction:
    if p.degree < 1:
        raise ValueError("discriminant requires degree >= 1")
    n = p.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc
