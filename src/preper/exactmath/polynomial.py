"""Dense univariate polynomials: one ring arithmetic for Q[x], F_p[x] and
Q[x][y], and one extended Euclid.

Coefficients are stored lowest degree first, so ``coeffs[i]`` multiplies
``x**i`` and the leading coefficient sits at the end of the tuple.  The
zero polynomial is the empty tuple.  Instances are immutable and hashable.

The ring code is written once, in the private base class _DensePoly:
sums, negation, products, powers, division with remainder, the
derivative and monic, equality and hashing, and xgcd.  A ring supplies
only what differs: its constructor normalizes a coefficient list into
the canonical tuple, _new builds a sibling in the same ring, _lift turns
an operand into one (None for an operand of another ring, which the
operators answer with NotImplemented), and _quo is the exact coefficient
quotient that divmod and xgcd divide by.  Four rings use it: Poly here
(Q[x]), FpPoly (F_p[x], in exactmath.finitefield), its quotient FqElem
(F_p(i) = F_p[i]/(i**2 + 1), whose _new folds by i**2 = -1) and BiPoly
(Q[x][y], in exactmath.bivariate, which has no coefficient quotient and
so divides only by a monic polynomial).

Over Q a coefficient is an ``int`` when it is integral and a ``Fraction``
only when it is not: normalization maps ``Fraction(n, 1)`` to ``n``.
Sums and products of integral polynomials therefore run on Python
integers, and only a true division (in divmod, xgcd and the resultant)
goes through ``Fraction``, since ``int / int`` would be a float.  There
is no rational-function type: a quotient of polynomials is kept
unreduced over a common denominator (see exactmath.bivariate), so the
only gcd is xgcd.  It is the gcd of Cantor composition, over Q and over
F_p (see ffjac).  Over Q it also inverts in a number field Q[T]/(g):
there an element is a Poly reduced mod g, and xgcd(a, g) = (1, s, t)
makes s the inverse of a.  Over F_2 it decides the smoothness test at 2.

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
from itertools import zip_longest
from typing import Iterable

from ..values import Value, set_field


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


def _trim(cs: list) -> tuple:
    """cs without its trailing zero coefficients, as a tuple."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _canonical(coeffs) -> tuple:
    """Coefficients over Q in canonical form, trailing zeros dropped."""
    cs = list(coeffs)
    for i, c in enumerate(cs):
        if type(c) is not int:
            cs[i] = _coerce(c)
    return _trim(cs)


class _DensePoly(Value):
    """Ring arithmetic on a tuple of coefficients, lowest degree first.

    A ring supplies _normalize(coeffs) -> tuple (or its own constructor),
    the scalar types _SCALARS that lift to constants, and the exact
    quotient _quo(a, b); it replaces _new and _lift when a sibling needs
    more than its coefficients (FpPoly its modulus, FqElem also the fold
    by i**2 = -1).  The shared code never asks which ring it serves.
    """

    __slots__ = ("coeffs",)
    _SCALARS: tuple = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        set_field(self, "coeffs", self._normalize(coeffs))

    def _new(self, coeffs):
        return type(self)(coeffs)

    def _lift(self, other):
        """other as a polynomial of this ring, or None."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self._SCALARS):
            return self._new((other,))
        return None

    def _quo(self, a, b):
        raise TypeError(f"{type(self).__name__} has no exact division")

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._new([a + b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return self._new([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._new([a - b for a, b in zip_longest(self.coeffs, o.coeffs, fillvalue=0)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return self._new(())
        bs = o.coeffs
        out = [0] * (len(self.coeffs) + len(bs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(bs, i):
                    out[j] += a * b
        return self._new(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result, base = self._new((1,)), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        """(quotient, remainder).  A monic divisor needs no coefficient
        quotient: each quotient digit is then the leading coefficient of
        the running remainder as it stands, reduced only when the result
        is built."""
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        *low, dlc = o.coeffs
        rem = list(self.coeffs)
        q = [0] * max(1, len(rem) - len(low))
        monic = dlc == 1
        # each step cancels the leading term of rem exactly, so pop it
        for k in range(len(rem) - 1 - len(low), -1, -1):
            c = q[k] = rem.pop() if monic else self._quo(rem.pop(), dlc)
            if c:
                for i, b in enumerate(low, k):
                    rem[i] -= c * b
        return self._new(q), self._new(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return self._new([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        """This polynomial over its leading coefficient; zero stays zero."""
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        return self * self._quo(1, self.coeffs[-1])


def xgcd(a, b):
    """(g, s, t) with g = s*a + t*b and g monic (or zero), for a and b in
    one ring with division: Q[x] or a single F_p[x]."""
    r0, r1 = a, a._lift(b)
    if r1 is None:
        raise TypeError(f"xgcd of {type(a).__name__} and {type(b).__name__}")
    s0, s1 = a._new((1,)), a._new(())
    t0, t1 = s1, s0
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0:
        inv = r0._quo(1, r0.lc)
        r0, s0, t0 = r0 * inv, s0 * inv, t0 * inv
    return r0, s0, t0


fp_xgcd = xgcd  # the same function, under the name of the F_p gcd


class Poly(_DensePoly):
    """Univariate polynomial with int or Fraction coefficients, lowest
    degree first."""

    __slots__ = ()
    _normalize = staticmethod(_canonical)
    _quo = staticmethod(_div)

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

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
