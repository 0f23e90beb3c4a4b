"""Integer and rational helpers shared across the exact-arithmetic layer.

Everything here is pure and exact: no floats anywhere.  Rational scalars
are ``fractions.Fraction`` throughout the package; this module adds the
few predicates Fraction does not ship with (perfect-square tests, p-adic
valuations, primality for the small moduli we use).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

# residues of squares modulo 64, 63, 65, 11: cheap rejection before isqrt
_SQ64 = frozenset((i * i) % 64 for i in range(64))
_SQ63 = frozenset((i * i) % 63 for i in range(63))
_SQ65 = frozenset((i * i) % 65 for i in range(65))
_SQ11 = frozenset((i * i) % 11 for i in range(11))


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    if n % 64 not in _SQ64:
        return False
    if n % 63 not in _SQ63 or n % 65 not in _SQ65 or n % 11 not in _SQ11:
        return False
    r = isqrt(n)
    return r * r == n


def sqrt_exact(q: Fraction) -> Fraction | None:
    """Rational square root of q, or None if q is not a rational square."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def valuation(q: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    if q == 0:
        raise ValueError("valuation of zero is undefined")
    num = q.numerator if isinstance(q, Fraction) else q
    den = q.denominator if isinstance(q, Fraction) else 1
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the moduli used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# an integer literal: ASCII digits with an optional sign; a rational
# literal is one or p/q, a sign allowed on each part
_INTEGER = r"[+-]?[0-9]+"
_RATIONAL = re.compile(rf"({_INTEGER})(?:/({_INTEGER}))?")


def parse_integer(text: str) -> int:
    """Parse an integer literal, no whitespace allowed except around it."""
    if re.fullmatch(_INTEGER, text.strip()) is None:
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse an exact 'p/q' or integer literal, no whitespace allowed
    except around it; q = 0 raises ValueError."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    q = 1 if den is None else int(den)
    if q == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), q)


def format_rational(q: Fraction) -> str:
    """Render as 'p' or 'p/q', the only numeric text format the package emits."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
