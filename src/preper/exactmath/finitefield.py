"""Finite fields F_p and F_{p^2}, Legendre symbols, square tests, the
reduction of a rational mod p, and polynomials over F_p.

FpPoly is the F_p[x] instance of the one dense-polynomial ring code in
exactmath.polynomial.  Its arithmetic adds only reduction mod p, the
modular inverse as the coefficient quotient, and the modulus check that
makes F_3[x] and F_5[x] refuse to mix.  Its extended gcd is the one xgcd
there, which exactmath also exports as fp_xgcd.

FqElem is one more instance of that ring code: F_{p^2} as
F_p(i) = F_p[i]/(i**2 + 1) for a prime p = 3 mod 4, where -1 is a
non-residue, so printed values like 330+2i compare literally.  It is an
FpPoly whose _new folds every result to degree below 2; the two rings
still refuse to mix (a TypeError, and unequal under ==), since a subclass
operand would otherwise lift silently into F_p[x].  An element x is
a square exactly when its norm N(x) = x**(p+1) is a square in F_p,
because x**((p**2 - 1)/2) = N(x)**((p - 1)/2): Euler's criterion on one
int.  FqElem serves only the 743 rows of descent; point counting over
F_{p^2} (ffjac.count_points) reads the norm of g over each conjugate
pair as one int instead.

There is no GF(2**k) arithmetic: smoothness in characteristic 2 is
decided by gcds of FpPoly over F_2 (see curves.good_reduction_model_check).
"""

from __future__ import annotations

from fractions import Fraction

from ..values import set_field
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
            if type(other) is not type(self):  # F_p[x] and F_p(i) do not mix
                raise TypeError(f"mixed rings: {type(self).__name__} and "
                                f"{type(other).__name__}")
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
        if isinstance(other, FpPoly) and (type(other) is not type(self) or other.p != self.p):
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
        acc = x._new(())
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"FpPoly({self.p}, {list(self.coeffs)})"


class FqElem(FpPoly):
    """Element a + b*i of F_p(i) = F_p[i]/(i**2 + 1), p a prime = 3 mod 4:
    an FpPoly of degree below 2 whose every result is folded back by
    i**2 = -1.  An int or Fraction lifts through fp_residue."""

    __slots__ = ()
    _SCALARS = (int, Fraction)

    def __init__(self, p: int, coeffs=()):
        if p % 4 != 3 or not is_prime(p):
            raise ValueError(f"F_{p}(i) needs a prime p = 3 mod 4")
        set_field(self, "p", p)
        set_field(self, "coeffs", self._new(coeffs).coeffs)

    def _new(self, coeffs) -> "FqElem":
        p, folded = self.p, [0, 0]
        for k, c in enumerate(coeffs):
            folded[k & 1] += -c if k & 2 else c  # i**k = (-1)**(k//2) * i**(k%2)
        new = object.__new__(FqElem)
        set_field(new, "p", p)
        set_field(new, "coeffs", _trim([c % p if type(c) is int else fp_residue(c, p)
                                        for c in folded]))
        return new

    @property
    def a(self) -> int:
        return self[0]

    @property
    def b(self) -> int:
        return self[1]

    def norm(self) -> int:
        """Norm down to F_p as an int: a^2 + b^2."""
        return (self.a * self.a + self.b * self.b) % self.p

    def is_square(self) -> bool:
        """Euler's criterion on the norm: x^((p^2 - 1)/2) = N(x)^((p - 1)/2),
        so one modular power of an int decides.  Zero counts as a square."""
        n = self.norm()
        return n == 0 or pow(n, (self.p - 1) // 2, self.p) == 1

    def __repr__(self):
        return f"{self.a}+{self.b}i"
