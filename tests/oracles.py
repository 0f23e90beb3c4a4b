"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the resultant oracle
is a Sylvester determinant over Fractions, the orbit oracle is blunt
bounded iteration with an escape cutoff instead of valuation reasoning,
the shape oracle finds cycle vertices by a tortoise walk of |V| steps from
every vertex instead of one memoised orbit walk, and the point-search
oracle evaluates the polynomial at each Fraction instead of running
integer Horner on scaled weights.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


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
    """("periodic", m), ("preperiodic", m, n), or "divergent" by raw
    iteration with a crude escape cutoff."""
    cutoff = abs(c) + 4
    seen = {}
    y = Fraction(x)
    for i in range(steps):
        if abs(y) > cutoff or y.denominator > 10 ** 12:
            return "divergent"
        if y in seen:
            first = seen[y]
            m = i - first
            return ("periodic", m) if first == 0 else ("preperiodic", m, first)
        seen[y] = i
        y = y * y + c
    return "divergent"


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
        if brute_orbit_kind(c, x) != "divergent":
            out.add(x)
    return out


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
