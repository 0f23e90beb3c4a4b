"""Exact arithmetic substrate: rationals, polynomials over Q and over F_p,
curve function fields, and the finite fields F_p and F_{p^2}.  Arithmetic
in a number field Q[T]/(g) is Poly arithmetic reduced mod g, with norms
as resultants and inverses from xgcd."""

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
    fp_residue,
    fp_xgcd,
    legendre_symbol,
)

__all__ = [
    "BiPoly",
    "CurveFunctionField",
    "FieldElement",
    "FpPoly",
    "Fq",
    "FqElem",
    "Poly",
    "RationalMap",
    "discriminant",
    "format_rational",
    "fp_residue",
    "fp_xgcd",
    "is_perfect_square",
    "is_prime",
    "legendre_symbol",
    "parse_rational",
    "resultant",
    "sqrt_exact",
    "valuation",
    "xgcd",
]
