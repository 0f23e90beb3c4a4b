"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the polynomial
oracles keep every coefficient a Fraction (the package's Poly keeps
integral coefficients as int), the F_p[x] oracles reduce every
intermediate coefficient mod p and invert by Fermat's little theorem
(the package shares one dense-polynomial code with Q[x] and reduces only
when it builds a polynomial), the resultant oracle is a Sylvester
determinant over Fractions, the orbit oracle is blunt
bounded iteration with an escape cutoff instead of valuation reasoning,
the F_p elements that rational maps are evaluated at divide by Fermat's
little theorem (the package's F_{p^2} elements have no division), the box oracle walks a box one numerator wider on each side in Fractions
(x -> x*x + c) instead of on numerators inside the exact box,
the shape oracle finds cycle vertices by a tortoise walk of |V| steps from
every vertex instead of one memoised orbit walk, the point-search
oracle evaluates the polynomial at each Fraction instead of running
integer Horner on scaled weights, the sieve-mask oracle runs Horner on
b^e f(a/b) mod p for each residue r of b instead of reading one table
of f mod p at a/r, the finite-field oracles find squares
by squaring every element instead of Euler's criterion on the norm, the
divisor-class oracle builds a Mumford pair from the chord or tangent
through its points instead of by Cantor composition, the Cantor oracle
composes every pair by the general two-gcd formula on int lists instead
of by the cases doubling, coprime and general, the elliptic-curve
oracle adds rational points by chord and tangent instead of by Cantor
composition on the completed square, the
root oracle evaluates at every residue mod p instead of certifying the
shape of g mod 743 by a gcd and a product, the smoothness oracle enumerates points over F_{2^k} instead of taking one
gcd over F_2, the 2-torsion oracle enumerates stable root pairs
instead of counting them by formula, the branch-series oracle runs
Newton iteration with a series inverse instead of reading off one
coefficient at a time, and the congruence-series oracles track a
precision per coefficient and a tail floor instead of one precision per
series.  Nothing here imports preper
(tests/test_cli.py checks this).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt


# --- Fraction-only polynomial arithmetic --------------------------------------
# coefficient lists lowest degree first, with no trailing zeros


def frac_poly(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def frac_add(p, q) -> list[Fraction]:
    p, q = frac_poly(p), frac_poly(q)
    n = max(len(p), len(q))
    p += [Fraction(0)] * (n - len(p))
    q += [Fraction(0)] * (n - len(q))
    return frac_poly(a + b for a, b in zip(p, q))


def frac_sub(p, q) -> list[Fraction]:
    return frac_add(p, [-c for c in frac_poly(q)])


def frac_mul(p, q) -> list[Fraction]:
    p, q = frac_poly(p), frac_poly(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return frac_poly(out)


def frac_divmod(p, q) -> tuple[list[Fraction], list[Fraction]]:
    rem, q = frac_poly(p), frac_poly(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quo = [Fraction(0)] * max(1, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = frac_poly(rem)
    return frac_poly(quo), rem


def frac_xgcd(a, b):
    """(g, s, t) with g = s*a + t*b and g monic (or zero)."""
    r0, r1 = frac_poly(a), frac_poly(b)
    s0, s1, t0, t1 = [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = frac_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, frac_sub(s0, frac_mul(q, s1))
        t0, t1 = t1, frac_sub(t0, frac_mul(q, t1))
    if r0:
        inv = [1 / r0[-1]]
        r0, s0, t0 = frac_mul(r0, inv), frac_mul(s0, inv), frac_mul(t0, inv)
    return r0, s0, t0


# --- int-only polynomial arithmetic over F_p ----------------------------------
# int coefficient lists lowest degree first, reduced into [0, p) after every
# operation, with no trailing zeros; inverses by Fermat's little theorem


def fp_poly(coeffs, p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def fp_add(a, b, p: int) -> list[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return fp_poly([x + y for x, y in zip(a, b)], p)


def fp_sub(a, b, p: int) -> list[int]:
    return fp_add(a, [-c for c in b], p)


def fp_mul(a, b, p: int) -> list[int]:
    a, b = fp_poly(a, p), fp_poly(b, p)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return fp_poly(out, p)


def fp_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    rem, b = fp_poly(a, p), fp_poly(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    quo = [0] * max(1, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        k = len(rem) - len(b)
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
        rem = fp_poly(rem, p)
    return fp_poly(quo, p), rem


def fp_xgcd(a, b, p: int):
    """(g, s, t) with g = s*a + t*b over F_p and g monic (or zero)."""
    r0, r1 = fp_poly(a, p), fp_poly(b, p)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = fp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, fp_sub(s0, fp_mul(q, s1, p), p)
        t0, t1 = t1, fp_sub(t0, fp_mul(q, t1, p), p)
    if r0:
        inv = [pow(r0[-1], p - 2, p)]
        r0, s0, t0 = fp_mul(r0, inv, p), fp_mul(s0, inv, p), fp_mul(t0, inv, p)
    return r0, s0, t0


def frac_compose(outer, inner) -> list[Fraction]:
    """outer(inner(x)) by Horner on coefficient lists."""
    acc: list[Fraction] = []
    for c in reversed(frac_poly(outer)):
        acc = frac_add(frac_mul(acc, inner), [c])
    return acc


def sylvester_discriminant(coeffs) -> Fraction:
    """(-1)^(n(n-1)/2) Res(p, p') / lc(p), with the Sylvester resultant."""
    p = frac_poly(coeffs)
    n = len(p) - 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * sylvester_resultant(p, [i * c for i, c in enumerate(p)][1:]) / p[-1]


def sylvester_resultant(p_coeffs, q_coeffs) -> Fraction:
    """det of the Sylvester matrix; coefficients lowest degree first."""
    p = [Fraction(c) for c in p_coeffs]
    q = [Fraction(c) for c in q_coeffs]
    while p and p[-1] == 0:
        p.pop()
    while q and q[-1] == 0:
        q.pop()
    m, n = len(p) - 1, len(q) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    prev = list(reversed(p)) + [Fraction(0)] * (n - 1)
    for i in range(n):
        rows.append([Fraction(0)] * i + prev + [Fraction(0)] * (n - 1 - i))
    qrev = list(reversed(q)) + [Fraction(0)] * (m - 1)
    for i in range(m):
        rows.append([Fraction(0)] * i + qrev + [Fraction(0)] * (m - 1 - i))
    # fraction Gaussian elimination
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def brute_orbit_kind(c: Fraction, x: Fraction, steps: int = 80):
    """The orbit type (m, n), a cycle of length m reached after n >= 0
    steps, or None for a divergent orbit, by raw iteration with a crude
    escape cutoff."""
    cutoff = abs(c) + 4
    seen = {}
    y = Fraction(x)
    for i in range(steps):
        if abs(y) > cutoff or y.denominator > 10 ** 12:
            return None
        if y in seen:
            return i - seen[y], seen[y]
        seen[y] = i
        y = y * y + c
    return None


def brute_preperiodic_set(c: Fraction, numerator_bound: int = 400) -> set[Fraction]:
    """All preperiodic k/d with |k| <= bound, by raw iteration only."""
    D = c.denominator
    d = isqrt(D)
    if d * d != D:
        return set()
    out = set()
    for k in range(-numerator_bound, numerator_bound + 1):
        if gcd(k, d) != 1:
            continue
        x = Fraction(k, d)
        if brute_orbit_kind(c, x) is not None:
            out.add(x)
    return out


def box_preper_graph(c: Fraction) -> tuple[frozenset, dict]:
    """Vertices and edges x -> x*x + c of the finite preperiodic points of
    z**2 + c, from a candidate box with one numerator of slack on each
    side: every k/d with gcd(k, d) = 1 and |k| <= kmax is iterated in
    Fractions until its orbit repeats or leaves the candidates (another
    denominator, or |x|(|x| - 1) > |c|, beyond which |x| only grows)."""
    D = c.denominator
    d = isqrt(D)
    if d * d != D:
        return frozenset(), {}
    cn, cd = abs(c).numerator, abs(c).denominator
    kmax = (d * (cd + isqrt(cd * cd + 4 * cd * cn))) // (2 * cd) + 1
    vertices = set()
    for k in range(-kmax, kmax + 1):
        if gcd(k, d) != 1:
            continue
        x, seen = Fraction(k, d), set()
        while x not in seen:
            if x.denominator != d or abs(x) * (abs(x) - 1) > abs(c):
                break
            seen.add(x)
            x = x * x + c
        else:
            vertices.add(Fraction(k, d))
    return frozenset(vertices), {x: x * x + c for x in vertices}


def brute_square_points(coeffs, height: int) -> set[tuple[Fraction, Fraction]]:
    """All (x, y) with y^2 = f(x) and x = a/b in lowest terms, |a|, |b| <=
    height, by Fraction evaluation of f (coefficients lowest degree first)
    and a square-root test on numerator and denominator."""
    out = set()
    for b in range(1, height + 1):
        for a in range(-height, height + 1):
            if gcd(a, b) != 1:
                continue
            x = Fraction(a, b)
            val = sum(Fraction(c) * x ** i for i, c in enumerate(coeffs))
            if val < 0:
                continue
            rn, rd = isqrt(val.numerator), isqrt(val.denominator)
            if rn * rn == val.numerator and rd * rd == val.denominator:
                out.add((x, Fraction(rn, rd)))
                out.add((x, -Fraction(rn, rd)))
    return out


def residue_mask(coeffs, e: int, p: int, r: int, height: int) -> int:
    """Bitset over a in [-height, height], bit a + height, of the a at which
    sum c_i a^i r^(e-i), that is b^e f(a/b) for b = r mod p, is a square
    mod p (zero included), by Horner in a for each of the p residues of a.
    Only a/b in lowest terms is searched, so for r = 0 the a divisible by
    p are left out.  Periodic in a, so one p-bit tile is repeated."""
    squares = {x * x % p for x in range(p)}
    ws = [coeffs[i] * r ** (e - i) % p for i in range(len(coeffs) - 1, -1, -1)]
    tile = 0
    for j in range(p):
        a, n = (j - height) % p, 0
        if r == 0 and a == 0:
            continue
        for w in ws:
            n = n * a + w
        if n % p in squares:
            tile |= 1 << j
    reps = -(-(2 * height + 1) // p)
    return tile * ((1 << p * reps) - 1) // ((1 << p) - 1)


def tortoise_shape_code(edges: dict) -> str:
    """Canonical code of a functional digraph given as vertex -> image:
    trees get sorted-parenthesis codes, cycles the minimal rotation of
    their tree codes, components are sorted and joined by ';'.  Cycle
    vertices are found by stepping |V| times from every vertex, which
    lands on the cycle of that vertex's component."""
    vertices = set(edges)
    cyclic = set()
    for v in vertices:
        tortoise = v
        for _ in range(len(vertices)):
            tortoise = edges[tortoise]
        probe, cycle = tortoise, []
        while probe not in cycle:
            cycle.append(probe)
            probe = edges[probe]
        cyclic.update(cycle)
    children: dict = {v: [] for v in vertices}
    for v in vertices:
        if v not in cyclic:
            children[edges[v]].append(v)

    def tree_code(v) -> str:
        return "(" + "".join(sorted(tree_code(ch) for ch in children[v])) + ")"

    components = []
    done = set()
    for v in sorted(cyclic, key=repr):
        if v in done:
            continue
        cycle = [v]
        w = edges[v]
        while w != v:
            cycle.append(w)
            w = edges[w]
        done.update(cycle)
        codes = [tree_code(u) for u in cycle]
        m = len(cycle)
        best = min(tuple(codes[(i + j) % m] for j in range(m)) for i in range(m))
        components.append(f"{m}:" + ",".join(best))
    return ";".join(sorted(components))


# --- finite fields on pairs of ints -------------------------------------------
# an element of F_{p^k}, k in {1, 2}, is a pair (a, b) standing for a + b*s
# with s^2 = n for a non-residue n; over F_p the pair is (a, 0)


def least_nonresidue(p: int) -> int:
    """Least non-square mod an odd prime p, by squaring every residue."""
    squares = {a * a % p for a in range(p)}
    return next(a for a in range(2, p) if a not in squares)


def fq_elements(p: int, k: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(p) for b in (range(p) if k == 2 else (0,))]


def fq_mul(x, y, p: int, n: int) -> tuple[int, int]:
    return ((x[0] * y[0] + n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def brute_fq_squares(p: int, k: int, n: int) -> set[tuple[int, int]]:
    """Every square of F_{p^k}, zero included, by squaring each element;
    F_{p^2} is built on the non-residue n (ignored when k = 1)."""
    return {fq_mul(x, x, p, n) for x in fq_elements(p, k)}


class ModP:
    """An element of F_p with all four field operations, so rational maps
    can be evaluated at points over F_p without the package's F_{p^2}
    type.  The other operand may be an int, a Fraction or a ModP."""

    __slots__ = ("v", "p")

    def __init__(self, v, p: int):
        self.p = p
        self.v = v.v if isinstance(v, ModP) else v.numerator * pow(v.denominator, -1, p) % p

    def _of(self, other) -> int:
        return ModP(other, self.p).v

    def __add__(self, other):
        return ModP(self.v + self._of(other), self.p)

    __radd__ = __add__

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __sub__(self, other):
        return ModP(self.v - self._of(other), self.p)

    def __rsub__(self, other):
        return ModP(self._of(other) - self.v, self.p)

    def __mul__(self, other):
        return ModP(self.v * self._of(other), self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = self._of(other)
        if d == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return ModP(self.v * pow(d, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        return ModP(other, self.p) / self

    def __eq__(self, other):
        return self.v == self._of(other)


def brute_roots_mod_p(coeffs, p: int) -> list[int]:
    """Roots in F_p of the int polynomial with the given coefficients,
    lowest degree first, by summing c*x**i at every residue x."""
    return [x for x in range(p) if sum(c * x ** i for i, c in enumerate(coeffs)) % p == 0]


def brute_count_points(coeffs, p: int, k: int) -> int:
    """#C(F_{p^k}) for y^2 = g(x), g of degree 5 or 6 with int coefficients
    lowest degree first, p odd: one point over each root of g, two over each
    nonzero square value, and at infinity the solutions of y^2 = g6, the
    x^6 coefficient mod p: one point when it is 0 (a quintic, or a sextic
    whose leading coefficient p divides), two when it is a nonzero square
    and none when it is not."""
    n = least_nonresidue(p) if k == 2 else 0
    squares = brute_fq_squares(p, k, n)
    count = 0
    for x in fq_elements(p, k):
        acc = (0, 0)
        for c in reversed(coeffs):
            acc = fq_mul(acc, x, p, n)
            acc = ((acc[0] + c) % p, acc[1])
        if acc == (0, 0):
            count += 1
        elif acc in squares:
            count += 2
    g6 = (coeffs[6] % p if len(coeffs) > 6 else 0, 0)
    return count + len([y for y in fq_elements(p, k) if fq_mul(y, y, p, n) == g6])


# --- the elliptic group law by chord and tangent -----------------------------
# a = (a1, a2, a3, a4, a6) is y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6;
# a point is a pair of Fractions, and None is the point at infinity


def elliptic_on_curve(a, P) -> bool:
    if P is None:
        return True
    a1, a2, a3, a4, a6 = a
    x, y = P
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def elliptic_neg(a, P):
    if P is None:
        return None
    a1, _a2, a3, _a4, _a6 = a
    x, y = P
    return (x, -y - a1 * x - a3)


def elliptic_add(a, P, Q):
    """P + Q by the chord through P and Q, or the tangent at P = Q: with
    slope lam and y = lam x + nu the line, the third point of the line has
    x3 = lam^2 + a1 lam - a2 - x1 - x2, and P + Q is its negative."""
    for R in (P, Q):
        if not elliptic_on_curve(a, R):
            raise ValueError(f"point {R} is not on the curve {a}")
    if P is None:
        return Q
    if Q is None:
        return P
    if Q == elliptic_neg(a, P):
        return None
    a1, a2, a3, a4, _a6 = (Fraction(c) for c in a)
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = Fraction(y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return (x3, -(lam + a1) * x3 - nu - a3)


# --- Mumford pairs by chord and tangent ----------------------------------------


def chord_tangent_class(f, p: int, points) -> tuple[list[int], list[int]]:
    """Reduced Mumford pair (u, v) of P1 + ... + Pn - n*inf, n <= 2, on
    y^2 = f(x) over F_p, f of degree 5 with int coefficients lowest degree
    first, p odd.  Built from the line through the points instead of by
    composition: u = 1 for no points or for opposite points, otherwise
    u = prod (x - xi), with v = y1 for one point, the chord through two
    points with different x, and the tangent y1 + f'(x1)/(2 y1) (x - x1) at
    a doubled point.  u and v are int lists, lowest degree first, with no
    trailing zeros."""

    def trim(cs):
        cs = [c % p for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    pts = [(x % p, y % p) for x, y in points]
    if not pts or (len(pts) == 2 and pts[0][0] == pts[1][0]
                   and (pts[0][1] + pts[1][1]) % p == 0):
        return [1], []
    if len(pts) == 1:
        (x1, y1), = pts
        return trim([-x1, 1]), trim([y1])
    (x1, y1), (x2, y2) = pts
    if x1 != x2:
        slope = (y2 - y1) * pow(x2 - x1, -1, p)
    else:
        df = sum(i * c * x1 ** (i - 1) for i, c in enumerate(f) if i)
        slope = df * pow(2 * y1, -1, p)
    return trim([x1 * x2, -x1 - x2, 1]), trim([y1 - slope * x1, slope])


def cantor_compose(f, p: int, d1, d2) -> tuple[list[int], list[int]]:
    """Reduced Mumford pair of D1 + D2 on y^2 = f(x) over F_p, f monic of
    degree 5 as an int list, lowest degree first, each D a pair (u, v) of
    such lists.  Composition by Cantor's general formula whatever the
    operands: e = gcd(u1, u2) = e1 u1 + e2 u2, d = gcd(e, v1 + v2) =
    c1 e + c2 (v1 + v2), u = u1 u2 / d^2 and
    v = (c1 e1 u1 v2 + c1 e2 u2 v1 + c2 (v1 v2 + f)) / d mod u, then
    reduction u <- (f - v^2)/u made monic, v <- -v mod u while deg u > 2."""
    (u1, v1), (u2, v2) = d1, d2
    e, e1, e2 = fp_xgcd(u1, u2, p)
    d, c1, c2 = fp_xgcd(e, fp_add(v1, v2, p), p)
    u = fp_divmod(fp_mul(u1, u2, p), fp_mul(d, d, p), p)[0]
    num = fp_add(fp_add(fp_mul(fp_mul(c1, e1, p), fp_mul(u1, v2, p), p),
                        fp_mul(fp_mul(c1, e2, p), fp_mul(u2, v1, p), p), p),
                 fp_mul(c2, fp_add(fp_mul(v1, v2, p), f, p), p), p)
    v = fp_divmod(fp_divmod(num, d, p)[0], u, p)[1]
    while len(u) > 3:
        u = fp_divmod(fp_sub(f, fp_mul(v, v, p), p), u, p)[0]
        u = fp_mul(u, [pow(u[-1], p - 2, p)], p)
        v = fp_divmod([-c for c in v], u, p)[1]
    return u, v


# --- smoothness in characteristic 2 by enumeration ---------------------------

_GF2_MODULI = {1: 0b10, 2: 0b111, 3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def _gf2_mul(a: int, b: int, k: int) -> int:
    """Product in F_{2^k}, elements as bitmasks reduced by _GF2_MODULI[k]."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> k) & 1:
            a ^= _GF2_MODULI[k]
    return r


def brute_char2_smooth(h, q) -> bool:
    """True when z^2 + h(x) z + q(x) = 0 reduced mod 2 has no singular point
    over F_{2^k}, k <= 6, in the affine chart or in the chart x -> 1/X,
    z -> Z/X^3 cleared by X^6.  h and q are int coefficient lists, lowest
    degree first, of degree at most 3 and 6."""
    hz = [c % 2 for c in h] + [0] * (4 - len(h))
    qz = [c % 2 for c in q] + [0] * (7 - len(q))
    for k in range(1, 7):
        def ev(coeffs, x):
            acc = 0
            for c in reversed(coeffs):
                acc = _gf2_mul(acc, x, k) ^ c
            return acc

        for hc, qc in ((hz, qz), (hz[::-1], qz[::-1])):
            # derivatives over F_2: only odd-degree terms survive
            hder = [(i % 2) * hc[i] for i in range(1, len(hc))]
            qder = [(i % 2) * qc[i] for i in range(1, len(qc))]
            for x in range(1 << k):
                if ev(hc, x):  # dE/dz = h(x) in characteristic 2
                    continue
                for z in range(1 << k):
                    e = _gf2_mul(z, z, k) ^ ev(qc, x)  # z h(x) = 0 here
                    dx = _gf2_mul(z, ev(hder, x), k) ^ ev(qder, x)
                    if e == 0 and dx == 0:
                        return False
    return True


# --- local 2-torsion by enumeration -------------------------------------------


def count_stable_pairs_brute(local_degrees) -> int:
    """Independent enumeration of stable 2-subsets under the product of
    cyclic shifts; used to cross-check local_two_torsion_count."""
    roots = [(i, j) for i, d in enumerate(local_degrees) for j in range(d)]
    shifts = list(product(*[range(d) for d in local_degrees]))

    def act(shift, root):
        i, j = root
        return (i, (j + shift[i]) % local_degrees[i])

    stable = 0
    for pair in combinations(roots, 2):
        if all({act(s, pair[0]), act(s, pair[1])} == set(pair) for s in shifts):
            stable += 1
    return stable


# --- 3-adic branch series and congruence series -------------------------------


def newton_branch(g, x0, y0, order: int) -> list[Fraction]:
    """x(t) mod t^(order+1) with x(0) = x0 and g(x(t)) = (t + y0)^2, by
    Newton iteration x <- x - (g(x) - (t + y0)^2) / g'(x) on truncated
    Fraction series, with 1/g'(x) expanded term by term."""
    g = frac_poly(g)
    dg = frac_poly(i * c for i, c in enumerate(g))[1:]

    def trunc(s) -> list[Fraction]:
        s = [Fraction(c) for c in s[: order + 1]]
        return s + [Fraction(0)] * (order + 1 - len(s))

    def at(poly, xs) -> list[Fraction]:
        acc: list[Fraction] = []
        for c in reversed(poly):
            acc = trunc(frac_add(frac_mul(acc, xs), [c]))
        return trunc(acc)

    def inverse(s) -> list[Fraction]:
        out = [1 / s[0]]
        for n in range(1, order + 1):
            out.append(-sum(s[k] * out[n - k] for k in range(1, n + 1)) / s[0])
        return out

    target = trunc([y0 * y0, 2 * y0, 1])
    xs = trunc([x0])
    for _ in range((order + 1).bit_length() + 1):  # each step doubles the valid order
        fx = frac_sub(at(g, xs), target)
        xs = trunc(frac_sub(xs, trunc(frac_mul(fx, inverse(at(dg, xs))))))
    return xs


# A congruence series with a precision per coefficient: {index: (residue, r)}
# says the coefficient is residue mod p**r, and every unlisted coefficient
# has valuation at least the tail floor.  The package keeps one precision
# for a whole series; on such series these must agree with it.


def tracked_scale(coeffs: dict, floor: int, p: int, scalar: int, known_mod: int):
    """(coeffs, floor) times a scalar known mod p**known_mod."""
    out = {}
    for i, (res, r) in coeffs.items():
        r2 = min(r, known_mod)
        out[i] = (res * scalar % p ** r2, r2)
    return out, min(floor, known_mod)


def tracked_sub(a: dict, a_floor: int, b: dict, b_floor: int, p: int):
    """The difference, known at each index to the lesser precision; an
    unlisted coefficient is 0 mod p**floor, and an index known mod p**0 is
    dropped."""
    out = {}
    for i in sorted(set(a) | set(b)):
        x, rx = a.get(i, (0, a_floor))
        y, ry = b.get(i, (0, b_floor))
        r = min(rx, ry)
        if r:
            out[i] = ((x - y) % p ** r, r)
    return out, min(a_floor, b_floor)


def tracked_strassman_bound(coeffs: dict, floor: int, p: int):
    """The largest index of minimal valuation, or None unless the minimum
    is exactly known and no zero residue or the tail floor could undercut
    it."""
    exact, floors = {}, {}
    for i, (res, r) in coeffs.items():
        if res % p ** r == 0:
            floors[i] = r
        else:
            v = 0
            while res % p == 0:
                res //= p
                v += 1
            exact[i] = v
    if not exact:
        return None
    m = min(exact.values())
    if m >= floor or any(f <= m for f in floors.values()):
        return None
    return max(i for i, v in exact.items() if v == m)
