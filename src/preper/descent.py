"""Local and global evidence for the Mordell-Weil computation on the
Jacobian of c1_32.

The number field here is L = Q[T]/(g(T)) for the sextic g of c1_32.  The
table of distinguished elements (two fundamental units, the irreducibles
over 2 and 743) is transcribed data; everything about them is recomputed:
their norms, the factorization identities 2 = -alpha^2 u1 and
743 = beta1^2 beta2 beta3, and the full 743-adic picture (factorization
shape of g, the residue-field images of T, which of 2 - T and u2 are local
squares, and the local 2-torsion count).

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
    Fq,
    Poly,
    ResidueRing,
    factor_sextic_mod_p,
    legendre_symbol,
)
from .report import EXTERNAL, Report

SEXTIC = C1_32.g
RING = ResidueRing(SEXTIC)


def _half(*numerators) -> Poly:
    """Polynomial with the given integer coefficients, all divided by 2,
    lowest degree first."""
    return Poly(tuple(Fraction(n, 2) for n in numerators))


# distinguished elements of L, with their expected norms
TABLE_ELEMENTS: dict[str, tuple[Poly, Fraction]] = {
    "u1": (_half(1, 2, -1, -1, 1), Fraction(1)),
    "u2": (_half(1, 4, -1, -1, 1), Fraction(1)),
    "minus_one": (Poly((-1,)), Fraction(1)),
    "alpha": (_half(3, 7, 1, -2, 0, 1), Fraction(8)),
    "beta1": (_half(-2, 6, 5, -5, 0, 1), Fraction(743)),
    "beta2": (_half(13, 35, -3, -10, 8, 1), Fraction(743 ** 2)),
    "beta3": (_half(18, -21, -33, 14, 9, -10), Fraction(743 ** 2)),
}


def element(name: str):
    rep, _ = TABLE_ELEMENTS[name]
    return RING(rep)


def table1_check() -> Report:
    """Recompute the norm of every distinguished element."""
    rep = Report("norms of distinguished elements")
    for name, (poly, expected) in TABLE_ELEMENTS.items():
        got = RING(poly).norm()
        rep.add(f"norm-{name}", f"norm({name}) = {expected}", got == expected, value=got)
    return rep


def factorization_identities() -> Report:
    """2 and 743 factor in L as -alpha^2 u1 and beta1^2 beta2 beta3."""
    rep = Report("factorization of the ramified primes in L")
    u1, alpha = element("u1"), element("alpha")
    b1, b2, b3 = element("beta1"), element("beta2"), element("beta3")
    rep.add("two-factors", "-alpha^2 * u1 = 2 in L",
            -(alpha * alpha) * u1 == RING(2))
    rep.add("u1-unit-shape", "u1 = -2 * alpha^-2 in L",
            u1 == RING(-2) * (alpha * alpha).inverse())
    rep.add("p743-factors", "beta1^2 * beta2 * beta3 = 743 in L",
            b1 * b1 * b2 * b3 == RING(743))
    # norm multiplicativity sanity on the first identity
    n = (-(alpha * alpha) * u1).norm()
    rep.add("norm-of-two", "norm(-alpha^2 u1) = 2^6", n == 64, value=n)
    return rep


P743 = 743
_F743SQ = Fq(P743, 2)

# residue-field images of T in the two unramified quadratic factors,
# ordered by (a, b) with the i-part normalized into [1, (p-1)/2]
ROOT_IMAGES = (_F743SQ(330, 2), _F743SQ(458, 44))


def _is_local_square(value) -> bool:
    """A unit of the unramified quadratic extension is a square exactly when
    its residue is, i.e. when the norm to F_p is a quadratic residue."""
    n = value.norm()
    return legendre_symbol(n.a, P743) == 1


def local_743_analysis() -> Report:
    rep = Report("743-adic analysis")
    shape = sorted((f.degree, m) for f, m in factor_sextic_mod_p(SEXTIC, P743))
    rep.add("l743-shape", "g mod 743 factors as linear^2 * quadratic * quadratic",
            shape == [(1, 2), (2, 1), (2, 1)], value=shape)

    gp = FpPoly.from_poly(SEXTIC, P743)
    for i, root in enumerate(ROOT_IMAGES, start=1):
        rep.add(f"l743-root{i}", f"g({root}) = 0 in F_743(i)",
                gp.eval_fq(root).is_zero(), value=str(root))
    # the two roots generate distinct quadratic factors of g mod 743
    quads = [f for f, m in factor_sextic_mod_p(SEXTIC, P743) if f.degree == 2]
    gens = []
    for root in ROOT_IMAGES:
        owner = [q for q in quads if q.eval_fq(root).is_zero()]
        gens.append(owner[0] if owner else None)
    rep.add("l743-distinct-factors", "the root images belong to the two distinct factors",
            None not in gens and gens[0] != gens[1],
            value=[list(q.coeffs) if q else None for q in gens])

    two_minus_t = [2 - root for root in ROOT_IMAGES]
    squares = [_is_local_square(v) for v in two_minus_t]
    rep.add("l743-2mT", "2 - T is a square in exactly one unramified factor",
            squares.count(True) == 1, value=squares,
            note="square at the factor of 458+44i, not 330+2i; local independence "
                 "of 2-T and u2 needs only that the pattern be mixed")

    u2_poly = TABLE_ELEMENTS["u2"][0]
    u2_images = [u2_poly(root) for root in ROOT_IMAGES]
    u2_squares = [_is_local_square(v) for v in u2_images]
    rep.add("l743-u2", "u2 is a square in neither unramified factor",
            u2_squares == [False, False], value=[str(v) for v in u2_images])

    rep.add("l743-legendre33", "the Legendre symbol (33/743) equals 1, so the curve "
            "has a local point with x = 2", legendre_symbol(33, P743) == 1)

    count = local_two_torsion_count([(1, 2), (2, 1), (2, 1)])
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
    rep = Report("Mordell-Weil evidence for the Jacobian of c1_32")
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
