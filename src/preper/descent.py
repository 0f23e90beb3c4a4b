"""Local and global evidence for the Mordell-Weil computation on the
Jacobian of c1_32.

The number field here is L = Q[T]/(g(T)) for the sextic g of c1_32.  The
table of distinguished elements (two fundamental units, the irreducibles
over 2 and 743) is transcribed data; everything about them is recomputed:
their norms, the factorization identities 2 = -alpha^2 u1 and
743 = beta1^2 beta2 beta3, and the full 743-adic picture (factorization
shape of g, the residue-field images of T, which of 2 - T and u2 are local
squares, and the local 2-torsion count).

An element of L is a Poly representative; products are reduced mod g,
the norm of a is the resultant Res(g, a) (g is monic), and an inverse
comes from xgcd(a, g).  The shape of g mod 743 is certified rather than
found by factoring: gcd(g, g') mod 743 is the linear factor x - r of the
double root, each transcribed root image a + b*i with b != 0 has the
irreducible minimal polynomial x^2 - 2a*x + (a^2 + b^2) over F_743, and
g = (x - r)^2 q1 q2 with q1 != q2 then fixes the shape by unique
factorization in F_743[x].

The conclusion that the Mordell-Weil group is infinite cyclic rests in
addition on class-number and unit-group facts obtained from a
computer-algebra system; those enter the report as external dependencies,
never as computed results.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import C1_32
from .exactmath import (
    FpPoly,
    FqElem,
    Poly,
    legendre_symbol,
    resultant,
    xgcd,
)
from .report import EXTERNAL, Report

SEXTIC = C1_32.g


def _half(*numerators) -> Poly:
    """Polynomial with the given integer coefficients, all divided by 2,
    lowest degree first."""
    return Poly(tuple(Fraction(n, 2) for n in numerators))


# distinguished elements of L, as representatives of degree < 6, with
# their expected norms
TABLE_ELEMENTS: dict[str, tuple[Poly, Fraction]] = {
    "u1": (_half(1, 2, -1, -1, 1), Fraction(1)),
    "u2": (_half(1, 4, -1, -1, 1), Fraction(1)),
    "minus_one": (Poly((-1,)), Fraction(1)),
    "alpha": (_half(3, 7, 1, -2, 0, 1), Fraction(8)),
    "beta1": (_half(-2, 6, 5, -5, 0, 1), Fraction(743)),
    "beta2": (_half(13, 35, -3, -10, 8, 1), Fraction(743 ** 2)),
    "beta3": (_half(18, -21, -33, 14, 9, -10), Fraction(743 ** 2)),
}


def element(name: str) -> Poly:
    rep, _ = TABLE_ELEMENTS[name]
    return rep


def table1_check() -> Report:
    """Recompute the norm of every distinguished element."""
    rep = Report()
    for name, (poly, expected) in TABLE_ELEMENTS.items():
        got = resultant(SEXTIC, poly)
        rep.add(f"norm-{name}", f"norm({name}) = {expected}", got == expected, value=got)
    return rep


def factorization_identities() -> Report:
    """2 and 743 factor in L as -alpha^2 u1 and beta1^2 beta2 beta3."""
    rep = Report()
    u1, alpha = element("u1"), element("alpha")
    b1, b2, b3 = element("beta1"), element("beta2"), element("beta3")
    two = -(alpha * alpha) * u1
    rep.add("two-factors", "-alpha^2 * u1 = 2 in L", two % SEXTIC == 2)
    unit, alpha2_inv, _ = xgcd(alpha * alpha, SEXTIC)
    rep.add("u1-unit-shape", "u1 = -2 * alpha^-2 in L",
            unit == 1 and u1 % SEXTIC == -2 * alpha2_inv % SEXTIC)
    rep.add("p743-factors", "beta1^2 * beta2 * beta3 = 743 in L",
            b1 * b1 * b2 * b3 % SEXTIC == 743)
    # norm multiplicativity sanity on the first identity
    n = resultant(SEXTIC, two)
    rep.add("norm-of-two", "norm(-alpha^2 u1) = 2^6", n == 64, value=n)
    return rep


P743 = 743

# residue-field images of T in the two unramified quadratic factors,
# ordered by (a, b) with the i-part normalized into [1, (p-1)/2]
ROOT_IMAGES = (FqElem(P743, (330, 2)), FqElem(P743, (458, 44)))

SHAPE_743 = [(1, 2), (2, 1), (2, 1)]


def local_743_analysis() -> Report:
    rep = Report()
    gp = FpPoly.from_poly(SEXTIC, P743)
    # the shape certificate of the module docstring; b != 0 keeps each
    # root image out of F_743, so its minimal polynomial
    # (x - root)(x - conj(root)) = x^2 - 2a x + N(root) is irreducible
    linear = xgcd(gp, gp.derivative())[0]
    quads = [FpPoly(P743, (root.norm(), -2 * root.a, 1)) for root in ROOT_IMAGES]
    distinct = quads[0] != quads[1]
    certified = (linear.degree == 1 and all(root.b for root in ROOT_IMAGES)
                 and distinct and gp == linear * linear * quads[0] * quads[1])
    rep.add("l743-shape", "g mod 743 factors as linear^2 * quadratic * quadratic",
            certified, value=SHAPE_743 if certified else None)

    for i, root in enumerate(ROOT_IMAGES, start=1):
        rep.add(f"l743-root{i}", f"g({root}) = 0 in F_743(i)",
                gp.eval_fq(root).is_zero(), value=str(root))
    rep.add("l743-distinct-factors", "the root images belong to the two distinct factors",
            distinct and all((gp % q).is_zero() for q in quads),
            value=[list(q.coeffs) for q in quads])

    two_minus_t = [2 - root for root in ROOT_IMAGES]
    squares = [not v.is_zero() and v.is_square() for v in two_minus_t]
    rep.add("l743-2mT", "2 - T is a square in exactly one unramified factor",
            squares.count(True) == 1, value=squares,
            note="square at the factor of 458+44i, not 330+2i; local independence "
                 "of 2-T and u2 needs only that the pattern be mixed")

    u2_poly = TABLE_ELEMENTS["u2"][0]
    u2_images = [u2_poly(root) for root in ROOT_IMAGES]
    u2_squares = [not v.is_zero() and v.is_square() for v in u2_images]
    rep.add("l743-u2", "u2 is a square in neither unramified factor",
            u2_squares == [False, False], value=[str(v) for v in u2_images])

    rep.add("l743-legendre33", "the Legendre symbol (33/743) equals 1, so the curve "
            "has a local point with x = 2", legendre_symbol(33, P743) == 1)

    count = local_two_torsion_count(SHAPE_743) if certified else None
    rep.add("l743-2torsion", "the local 2-torsion group has order 3 + 1 = 4",
            count == 4, value=count)
    return rep


def local_two_torsion_count(shape) -> int:
    """Order of J(Q_p)[2] from the local factorization shape of g.

    shape is a list of (degree, multiplicity) pairs summing to 6; each pair
    stands for a local factor of degree degree*multiplicity whose roots are
    permuted cyclically.  Nontrivial 2-torsion classes are unordered pairs
    of distinct roots stable under the product of these cyclic groups, and
    the identity adds one.
    """
    local_degrees = [d * m for d, m in shape]
    if sum(local_degrees) != 6 or any(d <= 0 for d in local_degrees):
        raise ValueError(f"inconsistent factorization shape {shape}")
    # stable pairs: both roots in one degree-2 factor, or two rational roots
    ones = local_degrees.count(1)
    twos = local_degrees.count(2)
    return ones * (ones - 1) // 2 + twos + 1


def mordell_weil_report() -> Report:
    """Everything recomputable, plus the externally sourced inputs."""
    rep = Report()
    rep.extend(table1_check())
    rep.extend(factorization_identities())
    rep.extend(local_743_analysis())
    rep.add_status("mw-units", "class number 1 and unit group generated by u1, u2, -1",
                   EXTERNAL, note="computer-algebra input, consumed as stated")
    rep.add_status("mw-kernel-index", "index of the doubled group in the kernel of the "
                   "norm-restricted descent map is 2", EXTERNAL,
                   note="cited result for sextics with full Galois group")
    rep.add_status("mw-conclusion", "Mordell-Weil group is infinite cyclic of rank 1",
                   EXTERNAL,
                   note="follows from the verified local evidence plus the external inputs")
    return rep
