import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from preper.exactmath import (
    BiPoly,
    FpPoly,
    FqElem,
    Poly,
    discriminant,
    is_perfect_square,
    legendre_symbol,
    parse_integer,
    parse_rational,
    resultant,
    sqrt_exact,
    valuation,
    xgcd,
)
from oracles import (
    brute_fq_squares,
    fp_add,
    fp_divmod,
    fp_mul,
    fp_poly,
    fp_sub,
    fq_mul,
    frac_add,
    frac_divmod,
    frac_mul,
    frac_sub,
    frac_xgcd,
    sylvester_discriminant,
    sylvester_resultant,
)

G = Poly((1, 2, 5, 2, -2, 0, 1))  # the c1_32 sextic


def rand_fraction(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, maxdeg=4):
    return Poly([rand_fraction(rng) for _ in range(rng.randint(1, maxdeg + 1))])


def test_rational_arithmetic_is_exact_and_normalized():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a.denominator >= 1
        from math import gcd
        assert gcd(a.numerator, a.denominator) == 1


def test_parse_and_perfect_squares():
    assert parse_rational("-29/16") == Fraction(-29, 16)
    assert parse_rational("7") == 7
    assert parse_rational(" +3/-4\n") == Fraction(-3, 4)
    # only ASCII digits, an optional sign on each part and one slash
    for text in ("1 /2", "1\t/2", "1/\n2", "1_0/3", "\u0661\u0662/\u0664", "\u0661\u0662",
                 "", "/2", "1/", "1/2/3", "0x10", "1.5", "--1"):
        with pytest.raises(ValueError, match="not a rational literal"):
            parse_rational(text)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_rational("1/0")
    assert is_perfect_square(144) and not is_perfect_square(145)
    assert not is_perfect_square(-4)
    assert sqrt_exact(Fraction(49, 4)) == Fraction(7, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(Fraction(1, 3), 3) == -1


def test_poly_divmod_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        a = rand_poly(rng, 5)
        b = rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


# coefficients of every kind a caller may pass: int, bool, an integral
# Fraction (stored as int) and a proper Fraction
_coefficients = st.one_of(
    st.integers(-12, 12),
    st.booleans(),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
)
_polys = st.lists(_coefficients, max_size=5).map(Poly)


def assert_canonical(poly):
    """Every coefficient is an int, or a Fraction that is not integral."""
    for c in poly.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


@settings(max_examples=300, deadline=None)
@given(_polys, _polys)
@example(Poly((1, 2, 3)), Poly((1, 2)))          # integral, non-monic divisor
@example(Poly((5, 0, 0, 7)), Poly((3,)))         # integral constant divisor
@example(Poly((2,)), Poly((0, 0, 3)))            # Res of a constant by an int
def test_poly_arithmetic_matches_fraction_oracle(a, b):
    for p in (a, b):
        assert_canonical(p)
    for got, want in ((a + b, frac_add(a.coeffs, b.coeffs)),
                      (a - b, frac_sub(a.coeffs, b.coeffs)),
                      (a * b, frac_mul(a.coeffs, b.coeffs))):
        assert_canonical(got)
        assert list(got.coeffs) == want
    if b:
        q, r = divmod(a, b)
        assert_canonical(q)
        assert_canonical(r)
        assert (list(q.coeffs), list(r.coeffs)) == frac_divmod(a.coeffs, b.coeffs)
    g, u, v = xgcd(a, b)
    for p in (g, u, v):
        assert_canonical(p)
    assert [list(p.coeffs) for p in (g, u, v)] == list(frac_xgcd(a.coeffs, b.coeffs))
    assume(a and b)
    res = resultant(a, b)
    assert type(res) is Fraction
    assert res == sylvester_resultant(a.coeffs, b.coeffs)
    if a.degree >= 1:
        disc = discriminant(a)
        assert type(disc) is Fraction
        assert disc == sylvester_discriminant(a.coeffs)


def test_resultant_linear_cases():
    # q evaluated at the root of p
    assert resultant(Poly((-1, 1)), Poly((-2, 1))) == -1
    assert resultant(Poly((1, 0, 1)), Poly((0, 1))) == 1


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(3)
    for _ in range(60):
        p = rand_poly(rng, 4)
        q = rand_poly(rng, 4)
        if p.is_zero() or q.is_zero():
            continue
        assert resultant(p, q) == sylvester_resultant(p.coeffs, q.coeffs)


def test_resultant_multiplicative_in_factors():
    rng = random.Random(4)
    for _ in range(40):
        p, q, r = (rand_poly(rng, 3) for _ in range(3))
        if p.is_zero() or q.is_zero() or r.is_zero():
            continue
        assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)


def test_resultant_zero_iff_common_root():
    p = Poly((2, -3, 1))  # (x - 1)(x - 2)
    q = Poly((10, -7, 1))  # (x - 2)(x - 5)
    assert resultant(p, q) == 0
    assert resultant(p, Poly((-3, 1))) != 0
    with pytest.raises(ValueError):
        resultant(Poly(), Poly())


def test_discriminants():
    assert discriminant(Poly((1, 0, 1))) == -4  # x^2 + 1
    assert discriminant(G) == -(2 ** 12) * 743
    with pytest.raises(ValueError):
        discriminant(Poly((3,)))


def test_discriminant_consistent_with_sylvester_oracle():
    sextic = Poly((1, 4, 10, 10, 5, 2, 1))
    n = sextic.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    via_oracle = sign * sylvester_resultant(sextic.coeffs, sextic.derivative().coeffs)
    d = discriminant(sextic)
    assert d == via_oracle
    assert d != 0
    # same consistency for Res(g, g')
    assert resultant(G, G.derivative()) == sylvester_resultant(G.coeffs, G.derivative().coeffs)


def test_legendre_symbol_values():
    assert legendre_symbol(33, 743) == 1
    assert legendre_symbol(1, 101) == 1
    assert legendre_symbol(-1, 743) == -1  # 743 = 3 mod 4
    assert legendre_symbol(743 * 5, 743) == 0
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)


def test_legendre_symbol_multiplicative():
    rng = random.Random(5)
    for p in (7, 43, 743):
        for _ in range(40):
            a = rng.randint(1, p - 1)
            b = rng.randint(1, p - 1)
            assert legendre_symbol(a, p) * legendre_symbol(b, p) == legendre_symbol(a * b, p)


FQ_PRIMES = (3, 7, 11, 19, 23, 31, 43, 47, 59)  # the primes p = 3 mod 4 below 60


def test_is_square_matches_squaring_every_element():
    for p in FQ_PRIMES:
        squares = brute_fq_squares(p, 2, p - 1)
        elements = (FqElem(p, (a, b)) for a in range(p) for b in range(p))
        assert {(x.a, x.b) for x in elements if x.is_square()} == squares, p


_pairs = st.tuples(st.integers(-100, 100), st.integers(-100, 100))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FQ_PRIMES), _pairs, _pairs, st.lists(st.integers(-100, 100), max_size=7))
def test_fq_elem_matches_the_pair_oracle(p, x, y, coeffs):
    # F_p(i) is FpPoly's ring code folded by i^2 = -1; the oracle multiplies
    # pairs (a, b) with i^2 = p - 1
    X, Y = FqElem(p, x), FqElem(p, y)
    x, y = (x[0] % p, x[1] % p), (y[0] % p, y[1] % p)

    def pair(e):
        assert type(e) is FqElem and e.p == p
        return e.a, e.b

    assert pair(X) == x
    assert pair(X + Y) == ((x[0] + y[0]) % p, (x[1] + y[1]) % p)
    assert pair(X - Y) == ((x[0] - y[0]) % p, (x[1] - y[1]) % p)
    assert pair(X * Y) == fq_mul(x, y, p, p - 1) and X * Y == FqElem(p, fq_mul(x, y, p, p - 1))
    assert pair(2 - X) == ((2 - x[0]) % p, -x[1] % p)
    assert pair(Fraction(1, 2) * X) == fq_mul(((p + 1) // 2, 0), x, p, p - 1)
    acc = (0, 0)
    for c in reversed(coeffs):
        acc = fq_mul(acc, x, p, p - 1)
        acc = ((acc[0] + c) % p, acc[1])
    assert pair(FpPoly(p, coeffs).eval_fq(X)) == acc
    assert FqElem(p, (1, 0, 1)).is_zero()  # 1 + i^2


def test_fq_arithmetic_and_norm():
    x = FqElem(743, (330, 2))
    assert (x.a, x.b) == (330, 2) and FqElem(743, (0, 1)) ** 2 == -1  # i^2 = -1
    assert type(x.norm()) is int and x.norm() == (330 * 330 + 2 * 2) % 743
    assert 2 - x == FqElem(743, (-328, -2)) and (x - x).is_zero()
    # only a prime p = 3 mod 4 has -1 as a non-residue
    for p in (2, 13, 15):
        with pytest.raises(ValueError, match=f"F_{p}"):
            FqElem(p, (1, 1))


def test_fq_is_a_frozen_value():
    # an element hashes by its p and coefficients, so neither may change
    x = FqElem(7, (3,))
    s = {x}
    with pytest.raises(AttributeError):
        x.p = 11
    with pytest.raises(AttributeError):
        del x.coeffs
    assert x in s and FqElem(7, (3, 0)) in s and FqElem(7, (10, 7)) in s
    assert repr(x) == "3+0i" and repr(FqElem(743, (330, 2))) == "330+2i"
    assert x != FqElem(11, (3,)) and x != FqElem(7, (3, 1))
    assert pickle.loads(pickle.dumps(FqElem(743, (330, 2)))) == FqElem(743, (330, 2))
    with pytest.raises(ValueError, match="mixed moduli"):
        x + FqElem(11, (3,))


def test_fp_poly_and_fq_elem_do_not_mix():
    # FqElem subclasses FpPoly, whose operators used to lift one into the
    # other: FpPoly(7, (1,)) + FqElem(7, (1, 1)) came out as FpPoly(7, [2, 1])
    # and FqElem(7, (1, 1)) == FpPoly(7, (1, 1)) held
    f, q = FpPoly(7, (1,)), FqElem(7, (1, 1))
    for op in (operator.add, operator.sub, operator.mul, divmod, xgcd):
        for a, b in ((f, q), (q, f)):
            with pytest.raises(TypeError, match="mixed rings"):
                op(a, b)
    assert FqElem(7, (1, 1)) != FpPoly(7, (1, 1)) and FpPoly(7, (1, 1)) != FqElem(7, (1, 1))
    assert q + FqElem(7, (1,)) == FqElem(7, (2, 1)) and f + FpPoly(7, (1, 1)) == FpPoly(7, (2, 1))


def test_residue_norms_multiplicative_and_representative_independent():
    # arithmetic in L = Q[T]/(G) is Poly arithmetic mod G, and the norm of a
    # class is the resultant Res(G, a) with G monic
    rng = random.Random(7)
    for _ in range(30):
        a, b = rand_poly(rng, 5), rand_poly(rng, 5)
        assert resultant(G, a * b % G) == resultant(G, a) * resultant(G, b)
        # adding a multiple of the modulus leaves the class and its norm alone
        shifted = a + G * rand_poly(rng, 2)
        assert shifted % G == a % G and resultant(G, shifted) == resultant(G, a)


def test_residue_inverse_and_zero_division():
    t = Poly.x()
    unit, inverse, _ = xgcd(t, G)
    assert unit == 1 and t * inverse % G == 1
    # zero has no inverse: its gcd with the modulus is the modulus itself
    assert xgcd(Poly(), G)[0] == G
    assert resultant(G, Poly()) == 0


def test_parse_integer_takes_ascii_digits_only():
    assert parse_integer(" +13\n") == 13 and parse_integer("-7") == -7
    for text in ("\u0662", "\u0665", "1_0", "1/1", "", "+", "0x10", "1.0", "--1"):
        with pytest.raises(ValueError, match="not an integer literal"):
            parse_integer(text)


def test_mixed_coefficient_rings_raise():
    f3, f5 = FpPoly(3, (1, 1)), FpPoly(5, (4, 4))
    for op in (operator.add, operator.sub, operator.mul, divmod, operator.floordiv,
               operator.mod, xgcd):
        for a, b in ((f3, f5), (f5, f3), (f3, FpPoly(5, ()))):
            with pytest.raises(ValueError, match="mixed moduli"):
                op(a, b)
        # Q[x] and F_p[x] do not mix either way round
        for a, b in ((f3, Poly((1, 2))), (Poly((1, 2)), f3)):
            with pytest.raises(TypeError):
                op(a, b)
    # equality still answers across moduli, and tells them apart
    assert FpPoly(3, (1, 1)) != FpPoly(5, (1, 1)) and f3 == FpPoly(3, (4, 7))
    for zero in (Poly(), FpPoly(3, ()), BiPoly()):
        with pytest.raises(ValueError, match="no leading coefficient"):
            zero.lc


_fp_coeffs = st.lists(st.integers(-40, 40), max_size=7)  # degree <= 6


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13)), _fp_coeffs, _fp_coeffs)
@example(5, [1, 2, 3, 4], [2, 4])        # non-monic divisor, two quotient terms
@example(7, [3, 0, 0, 0, 0, 0, 6], [0, 5, 5])
@example(3, [2, 2], [])                  # gcd 2 + 2x must come out monic
def test_fp_poly_arithmetic_and_xgcd_match_int_oracle(p, a, b):
    A, B = FpPoly(p, a), FpPoly(p, b)
    assert list(A.coeffs) == fp_poly(a, p) and list(B.coeffs) == fp_poly(b, p)
    a, b = fp_poly(a, p), fp_poly(b, p)
    for got, want in ((A + B, fp_add(a, b, p)), (A - B, fp_sub(a, b, p)),
                      (A * B, fp_mul(a, b, p)), (-A, fp_sub([], a, p))):
        assert got.p == p and list(got.coeffs) == want
    if b:
        q, r = divmod(A, B)
        assert (list(q.coeffs), list(r.coeffs)) == fp_divmod(a, b, p)
    g, s, t = xgcd(A, B)
    assert fp_add(fp_mul(s.coeffs, a, p), fp_mul(t.coeffs, b, p), p) == list(g.coeffs)
    if not g:
        assert not a and not b
        return
    assert g.lc == 1
    for f in (a, b):
        assert fp_divmod(f, g.coeffs, p)[1] == []


def _bi_eval(rows, x, y):
    """sum of c * x**i * y**j over rows[j][i] = c, by plain powers."""
    return sum(Fraction(c) * x ** i * y ** j
               for j, row in enumerate(rows) for i, c in enumerate(row))


_bi_rows = st.lists(st.lists(_coefficients, max_size=3), max_size=3)
_points = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(_bi_rows, _bi_rows, st.integers(0, 3), _points)
def test_bipoly_arithmetic_matches_evaluation(a_rows, b_rows, n, points):
    a, b = (BiPoly([Poly(row) for row in rows]) for rows in (a_rows, b_rows))
    for x, y in points:
        va, vb = _bi_eval(a_rows, x, y), _bi_eval(b_rows, x, y)
        for got, want in ((a + b, va + vb), (a - b, va - vb), (a * b, va * vb),
                          (-a, -va), (a ** n, va ** n), (3 - a, 3 - va)):
            assert _bi_eval([c.coeffs for c in got.coeffs], x, y) == want
