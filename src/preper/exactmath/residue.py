"""Residue arithmetic modulo a fixed monic irreducible polynomial over Q.

A ResidueRing wraps the modulus g and hands out Residue elements, which
are polynomials of degree < deg g reduced on construction.  Since g is
irreducible over Q every nonzero element is invertible, and the norm of a
residue is Res(g, representative), the product of the representative over
the roots of g.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomial import Poly, resultant, xgcd


class ResidueRing:
    def __init__(self, modulus: Poly):
        if modulus.degree < 1:
            raise ValueError("modulus must be non-constant")
        if modulus.lc != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __call__(self, rep) -> "Residue":
        if isinstance(rep, (int, Fraction)):
            rep = Poly((rep,))
        return Residue(self, rep % self.modulus)

    def zero(self) -> "Residue":
        return self(Poly())

    def one(self) -> "Residue":
        return self(Poly((1,)))

    def generator(self) -> "Residue":
        """The class of the variable itself."""
        return self(Poly.x())


class Residue:
    __slots__ = ("ring", "rep")

    def __init__(self, ring: ResidueRing, rep: Poly):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, *a):
        raise AttributeError("Residue is immutable")

    def _lift(self, other):
        if isinstance(other, Residue):
            if other.ring != self.ring:
                raise ValueError("mixed residue rings")
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return self.ring(other)
        return None

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.rep == o.rep

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.ring(self.rep + o.rep)

    __radd__ = __add__

    def __neg__(self):
        return self.ring(-self.rep)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.ring(self.rep * o.rep)

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero residue")
        # xgcd makes g monic, so g = 1 = s*rep + t*modulus and s is the inverse
        g, s, _ = xgcd(self.rep, self.ring.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("residue is a zero divisor (modulus not irreducible?)")
        return self.ring(s)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def norm(self) -> Fraction:
        """Field norm: the representative multiplied over all roots of the
        modulus, computed as Res(modulus, rep) with the modulus monic."""
        if self.is_zero():
            return Fraction(0)
        return resultant(self.ring.modulus, self.rep)

    def __repr__(self):
        return f"Residue({self.rep!r})"
