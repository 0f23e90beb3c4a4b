"""Exact arithmetic substrate: rationals, polynomials over Q, over F_p and
over Q[x] (one ring arithmetic and one extended Euclid, xgcd, in
polynomial.py), curve function fields, and the finite fields F_p and
F_{p^2} = F_p(i) for p = 3 mod 4, one more instance of that ring code.
Arithmetic in a number field Q[T]/(g) is Poly arithmetic reduced mod g,
with norms as resultants and inverses from xgcd.

Only the integer helpers load with the package.  Poly, BiPoly, FpPoly and
the other names below come from their submodule on first access (PEP 562),
so a command that never touches a polynomial never imports one."""

import importlib

from .integers import (
    format_rational,
    is_perfect_square,
    is_prime,
    parse_integer,
    parse_rational,
    sqrt_exact,
    valuation,
)

_SUBMODULE = {
    "Poly": "polynomial",
    "discriminant": "polynomial",
    "fp_xgcd": "polynomial",
    "resultant": "polynomial",
    "xgcd": "polynomial",
    "BiPoly": "bivariate",
    "CurveFunctionField": "bivariate",
    "FieldElement": "bivariate",
    "RationalMap": "bivariate",
    "FpPoly": "finitefield",
    "FqElem": "finitefield",
    "fp_residue": "finitefield",
    "legendre_symbol": "finitefield",
}


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BiPoly",
    "CurveFunctionField",
    "FieldElement",
    "FpPoly",
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
    "parse_integer",
    "parse_rational",
    "resultant",
    "sqrt_exact",
    "valuation",
    "xgcd",
]
