"""Finite fields F_p and F_{p^2}, Legendre symbols, square tests, the
reduction of a rational mod p, and polynomials over F_p.

FpPoly is the F_p[x] instance of the one dense-polynomial ring code in
exactmath.polynomial.  Its arithmetic adds only reduction mod p, the
modular inverse as the coefficient quotient, and the modulus check that
makes F_3[x] and F_5[x] refuse to mix.  Its extended gcd is the one xgcd
there, which exactmath also exports as fp_xgcd.

F_{p^2} is realized as F_p(i) with i**2 equal to a fixed non-residue: -1
whenever p = 3 mod 4 (so printed values like 330+2i compare literally),
otherwise the least positive non-residue.  An element x is a square
exactly when its norm N(x) = x**(p+1) is a square in F_p, because
x**((p**2 - 1)/2) = N(x)**((p - 1)/2): Euler's criterion on one int.
Fq and FqElem now serve only the 743 rows of descent; point counting
over F_{p^2} (ffjac.count_points) reads the norm of g over each conjugate
pair as one int instead.

There is no GF(2**k) arithmetic: smoothness in characteristic 2 is
decided by gcds of FpPoly over F_2 (see curves.good_reduction_model_check).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..values import Value, set_field
from .integers import is_prime
from .polynomial import _DensePoly, _trim


def legendre_symbol(a: int, p: int) -> int:
    """Euler criterion; 0 when p divides a.  Requires p an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def fp_residue(q, p: int) -> int:
    """The residue in [0, p) of an int or Fraction q; raises
    ZeroDivisionError when p divides the denominator."""
    if q.denominator % p == 0:
        raise ZeroDivisionError(f"{q} has no residue mod {p}")
    return q.numerator * pow(q.denominator, -1, p) % p


@lru_cache(maxsize=None)
def _nonresidue(p: int) -> int:
    if p % 4 == 3:
        return p - 1  # i^2 = -1
    n = 2
    while legendre_symbol(n, p) != -1:
        n += 1
    return n


class Fq(Value):
    """Field F_{p^k} for k in {1, 2}; degree-2 elements are a + b*i.
    Compared, hashed and pickled by (p, k); nonresidue is derived."""

    __slots__ = ("p", "k", "nonresidue")
    _fields = ("p", "k")

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k not in (1, 2):
            raise ValueError("extension degree must be 1 or 2")
        if k == 2 and p == 2:
            raise ValueError("F_4 via a quadratic non-residue is not available")
        set_field(self, "p", p)
        set_field(self, "k", k)
        set_field(self, "nonresidue", _nonresidue(p) if k == 2 else None)

    def __repr__(self):
        return f"Fq({self.p})" if self.k == 1 else f"Fq({self.p}, 2)"

    def __call__(self, a: int, b: int = 0) -> "FqElem":
        if b % self.p and self.k == 1:
            raise ValueError("prime field element cannot have an i part")
        return FqElem(self, a, b)

    def zero(self) -> "FqElem":
        return self(0)

    def elements(self):
        if self.k == 1:
            for a in range(self.p):
                yield self(a)
        else:
            for a in range(self.p):
                for b in range(self.p):
                    yield self(a, b)

    def from_rational(self, q) -> "FqElem":
        return self(fp_residue(q, self.p))


class FqElem(Value):
    """Element a + b*i of F_{p^k}; immutable and hashable."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Fq, a: int, b: int = 0):
        set_field(self, "field", field)
        set_field(self, "a", a % field.p)
        set_field(self, "b", b % field.p)

    def _lift(self, other):
        if isinstance(other, FqElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed finite fields")
            return other
        if isinstance(other, int):
            return self.field(other)
        if isinstance(other, Fraction):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.a, self.b))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FqElem(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.field, -self.a, -self.b)

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
        if self.field.k == 1:
            return FqElem(self.field, self.a * o.a)
        n = self.field.nonresidue
        return FqElem(self.field,
                      self.a * o.a + n * self.b * o.b,
                      self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def norm(self) -> int:
        """Norm down to F_p as an int: a^2 - n*b^2 (= a^2 + b^2 for i^2 = -1)."""
        field = self.field
        if field.k == 1:
            return self.a
        return (self.a * self.a - field.nonresidue * self.b * self.b) % field.p

    def is_square(self) -> bool:
        """Euler's criterion on the norm: x^((p^k - 1)/2) = N(x)^((p - 1)/2)
        for k <= 2, so one modular power of an int decides.  Zero, and every
        element of F_2, count as squares."""
        p = self.field.p
        n = self.norm()
        return p == 2 or n == 0 or pow(n, (p - 1) // 2, p) == 1

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.a}"
        return f"{self.a}+{self.b}i"


class FpPoly(_DensePoly):
    """Polynomial over F_p, coefficients lowest degree first as ints in
    [0, p); the ring arithmetic is _DensePoly's, reduced mod p."""

    __slots__ = ("p",)
    _fields = ("p", "coeffs")
    _SCALARS = (int,)

    def __init__(self, p: int, coeffs=()):
        set_field(self, "p", p)
        set_field(self, "coeffs", _trim([c % p for c in coeffs]))

    def _new(self, coeffs) -> "FpPoly":
        # every sum, product, quotient and remainder builds its result
        # here, so the sibling skips the constructor call and its frame:
        # the coefficients are reduced and trimmed in one pass and the two
        # slots set directly, as __init__ would set them
        p = self.p
        new = object.__new__(FpPoly)
        set_field(new, "p", p)
        set_field(new, "coeffs", _trim([c % p for c in coeffs]))
        return new

    def _lift(self, other):
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: F_{self.p}[x] and F_{other.p}[x]")
            return other
        return _DensePoly._lift(self, other)

    def _quo(self, a: int, b: int) -> int:
        return a * pow(b, -1, self.p) % self.p

    @classmethod
    def from_poly(cls, poly, p: int) -> "FpPoly":
        """Reduce a rational Poly mod p; denominators must be units mod p."""
        return cls(p, [fp_residue(c, p) for c in poly.coeffs])

    def __eq__(self, other):
        if isinstance(other, FpPoly) and other.p != self.p:
            return False
        return super().__eq__(other)

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def eval_fq(self, x: FqElem) -> FqElem:
        acc = x.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"FpPoly({self.p}, {list(self.coeffs)})"

