"""Exact arithmetic substrate: rationals, polynomials, finite fields, and
residue algebra modulo a fixed sextic."""

from .integers import (
    format_rational,
    is_perfect_square,
    is_prime,
    parse_rational,
    sqrt_exact,
    valuation,
)
from .polynomial import Poly, discriminant, resultant, xgcd
from .bivariate import BiPoly, CurveFunctionField, FieldElement, RationalMap
from .finitefield import (
    FpPoly,
    Fq,
    FqElem,
    factor_mod_p,
    factor_sextic_mod_p,
    fp_gcd,
    fp_xgcd,
    is_irreducible_mod_p,
    legendre_symbol,
)
from .residue import Residue, ResidueRing

__all__ = [
    "BiPoly",
    "CurveFunctionField",
    "FieldElement",
    "FpPoly",
    "Fq",
    "FqElem",
    "Poly",
    "RationalMap",
    "Residue",
    "ResidueRing",
    "discriminant",
    "factor_mod_p",
    "factor_sextic_mod_p",
    "format_rational",
    "fp_gcd",
    "fp_xgcd",
    "is_irreducible_mod_p",
    "is_perfect_square",
    "is_prime",
    "legendre_symbol",
    "parse_rational",
    "resultant",
    "sqrt_exact",
    "valuation",
    "xgcd",
]
