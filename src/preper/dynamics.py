"""Orbits and preperiodic points of z**2 + c over Q.

Every rational preperiodic point of z**2 + c is constrained two ways:

* at each prime p dividing the denominator of c, an eventually periodic
  point must have v_p(x) = v_p(c)/2 exactly (so the denominator of c must
  be a perfect square d**2 and every candidate is k/d with k coprime to d);
  at all other primes v_p(x) >= 0;
* in absolute value, |x| <= B where B is the positive root of B**2 - B = |c|,
  because |x| > B forces |x**2 + c| > |x| and the orbit escapes.

With c = u/d**2 and x = k/d both tests are integer tests, so orbits are
walked on numerators alone: k -> (k**2 + u)/d, and the orbit has left the
candidates as soon as d does not divide k**2 + u or the image breaks the
escape bound |k|(|k| - d) <= |u|.  One helper makes that step for given
d and u, and another the box bound K = floor((d + sqrt(d**2 + 4|u|))/2),
the largest K with K(K - d) <= |u|; the candidate box holds the 2K + 1
numerators |k| <= K, and iteration inside it must repeat, so every walk
terminates.  A QuadMap derives d, u and its step once when it is built,
and every call on the map reads them from there.  One walk, `_walk`,
follows any step function until its orbit repeats and records the
(period, tail) of every preperiodic point it meets, so classification,
enumeration of the candidate box, the census's emptiness test, the
orbit types of a graph and the cycles of canonical shapes all share it,
and walks that share a record never repeat an orbit.  An orbit type is
that pair itself, the type m_n of a point that reaches an m-cycle after
n steps: `orbit_classify` returns it as (m, n), with n = 0 for a
periodic point, or None for a divergent orbit.  `preper_points` refuses a box of more than
BOX_BUDGET numerators rather than run for hours on a short argument, and
`scan` refuses a height above SCAN_BUDGET; both raise BudgetError, the
one refusal type of every budget in the package.

A scan meets each denominator d for hundreds of c, so it keeps one
PointTable per d.  The table groups its numerators k >= 0 by k**2 mod d,
so for c = u/d**2 it returns at once those k <= K whose first step stays
a candidate: d | k**2 + u and |k**2 + u| <= d*K.  Only these are walked,
and no preperiodic point is lost:
* the image of a preperiodic point is preperiodic, so it lies in the box;
* for an integer t >= 0, t(t - d) <= |u| holds exactly when t <= K, so
  |k**2 + u| <= d*K is the step's escape test on the image;
* d | k**2 + u together with gcd(u, d) = 1 forces gcd(k, d) = 1, so the
  gcd test goes;
* k and -k have the same image, so -k is preperiodic exactly when k is.
The scan is one loop, `_scan_chunk`, that settles every graph on integers
and tallies it at once: it walks the survivors with one memo, whose keys
and their negatives are then exactly the vertex numerators, and
canonicalizes k -> (k**2 + u)/d on them.  Only the samples it prints,
the first three c of each shape, get a Fraction, and only the nonempty
ones a QuadMap and a graph, built again by `preper_points`, which keeps
no table and walks the whole coprime box, so this cross-check rests
neither on the table nor on the mirror argument.  Without a table the
memory of `graph` does not grow with its box of up to BOX_BUDGET
numerators.

Graphs are canonicalized as functional digraphs: rooted trees hang off
cycle vertices, trees get sorted-parenthesis codes, cycles get the
lexicographically minimal rotation of their tree-code sequence.  The
codes are made in one bottom-up pass: `_walk` gives each vertex its
(period, tail), and the vertices are taken in decreasing tail, so each
tree code is made from its children's codes, which are already made.  The
catalog of shapes allowed by the classification theorems for cycle
lengths up to 3 is a derived catalog: twelve graphs (the empty one
included) assembled from the structural rules, not hard-coded codes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from .values import Value, set_field

# largest candidate box, 2*K + 1 numerators, that preper_points will walk
BOX_BUDGET = 10**6
# largest height that scan accepts; it visits about 1.2 * height**1.5 values of c
SCAN_BUDGET = 10**4


def _box_bound(d: int, u: int) -> int:
    """K for c = u/d**2: the largest K with K(K - d) <= |u|, so the
    candidate box is the numerators |k| <= K."""
    return (d + isqrt(d * d + 4 * abs(u))) // 2


def _numerator_step(d: int, u: int):
    """The step k -> (k**2 + u)/d of c = u/d**2 on numerators, returning
    None once the image is no candidate: d does not divide k**2 + u, or
    the image breaks the escape bound |image|(|image| - d) <= |u|."""
    bound = abs(u)

    # an image sharing a prime p with d is no candidate either, but needs
    # no test: u is coprime to d, so p cannot divide image**2 + u and the
    # next step leaves
    def step(k: int) -> int | None:
        image, r = divmod(k * k + u, d)
        if r or abs(image) * (abs(image) - d) > bound:
            return None
        return image

    return step


class QuadMap(Value):
    """The polynomial z**2 + c, with the integer state of its orbit walk.

    c = u/d**2 is the only field.  d (None when the denominator of c is not
    a square), u and step, the numerator step k -> (k**2 + u)/d that returns
    None once the orbit leaves the candidates, are derived once here for
    every orbit_classify and preper_points call on this map; they are no
    fields, so equality, hashing, repr and pickling see only c, and an
    unpickled or copied map derives them again.
    """

    __slots__ = ("c", "d", "u", "step")
    _fields = ("c",)

    def __init__(self, c: Fraction):
        set_field(self, "c", c)
        D = c.denominator
        d = isqrt(D)
        u = c.numerator
        if d * d != D:
            d = step = None
        else:
            step = _numerator_step(d, u)
        set_field(self, "d", d)
        set_field(self, "u", u)
        set_field(self, "step", step)

    def __call__(self, x: Fraction) -> Fraction:
        return x * x + self.c


class PreperGraph(Value):
    """Finite rational preperiodic points of z**2 + c with edges x -> f(x).

    The fixed point at infinity is never a vertex, but it always exists,
    so size_with_infinity adds one for it.  Equality and hashing look at
    c and the vertices only: the edges follow from them.
    """

    __slots__ = ("c", "vertices", "edges")
    _compare = ("c", "vertices")

    def __init__(self, c: Fraction, vertices: frozenset[Fraction],
                 edges: dict[Fraction, Fraction]):
        set_field(self, "c", c)
        set_field(self, "vertices", vertices)
        set_field(self, "edges", edges)

    def orbit_types(self) -> dict[Fraction, tuple[int, int]]:
        """The (period, tail) of every vertex, walked on the numerators of
        the edge map (every vertex is k/d for the one d of c), since a walk
        keyed by Fraction spends most of its time hashing."""
        image = {v.numerator: w.numerator for v, w in self.edges.items()}
        types: dict = {}
        return {v: _walk(v.numerator, image.__getitem__, types) for v in self.vertices}

    def size_with_infinity(self) -> int:
        return len(self.vertices) + 1


class PointTable:
    """The first-step survivors k >= 0 of every box with one denominator d.

    A scan reads one table for every c with denominator d**2.  The
    numerators 0 <= k <= reach sit in groups by k**2 mod d, each in
    increasing order as parallel lists of squares and roots; `candidates`
    grows the groups when a larger K arrives.
    """

    __slots__ = ("d", "reach", "groups")

    def __init__(self, d: int):
        self.d = d
        self.reach = -1
        self.groups: dict[int, tuple[list[int], list[int]]] = {}

    def candidates(self, u: int, K: int) -> list[int]:
        """The numerators 0 <= k <= K with d | k**2 + u and |k**2 + u| <= d*K,
        in increasing order: for c = u/d**2 in lowest terms and its box
        bound K, the box numerators k >= 0 with QuadMap(c).step(k) not None."""
        d, groups = self.d, self.groups
        if K > self.reach:
            for k in range(self.reach + 1, K + 1):
                s = k * k
                group = groups.get(s % d)
                if group is None:
                    group = groups[s % d] = ([], [])
                group[0].append(s)
                group[1].append(k)
            self.reach = K
        group = groups.get(-u % d)
        if group is None:
            return []
        squares, roots = group
        # k**2 + u within [-d*K, d*K], and k <= K
        return roots[bisect_left(squares, -d * K - u):
                     bisect_right(squares, min(K * K, d * K - u))]


class NotQuadraticError(ValueError):
    pass


class BudgetError(ValueError):
    """An argument asks for more work than one of the package's budgets
    allows: BOX_BUDGET and SCAN_BUDGET here, curves.SEARCH_BUDGET,
    ffjac.COUNT_BUDGET and families.PARAMETER_BUDGET; the message names
    which."""


def normalize_quadratic(a: Fraction, b: Fraction, c0: Fraction):
    """Conjugate a*z**2 + b*z + c0 to z**2 + c via ell(z) = a*z + b/2.

    Returns (c, (a, b/2)); ell maps preperiodic points of the original map
    bijectively onto those of z**2 + c.
    """
    a, b, c0 = Fraction(a), Fraction(b), Fraction(c0)
    if a == 0:
        raise NotQuadraticError("leading coefficient must be nonzero")
    c = a * c0 + b / 2 - b * b / 4
    return c, (a, b / 2)


def _walk(start, step, types: dict):
    """(period, tail) of start under step, or None when step returns None
    (the orbit left the candidates).

    Every preperiodic point visited gets its (period, tail) in types, and
    the walk stops at the first point already there.
    """
    if start in types:
        return types[start]
    # most candidates leave at once; they return before a path is built
    y = step(start)
    if y is None:
        return None
    path = [start]
    while y not in types:
        if y in path:
            i = path.index(y)
            for z in path[i:]:
                types[z] = (len(path) - i, 0)
            del path[i:]
            break
        path.append(y)
        y = step(y)
        if y is None:
            return None
    period, tail = types[y]
    for z in reversed(path):
        tail += 1
        types[z] = (period, tail)
    return types[start]


def orbit_classify(f: QuadMap, x: Fraction,
                   types: dict | None = None) -> tuple[int, int] | None:
    """Exact orbit type of x under z**2 + c, the pair (period, tail) when
    x reaches a cycle of length period after tail steps (tail 0 for a
    periodic point), or None when the orbit of x diverges; always
    terminates.

    The walk runs on numerators with the step that f derived when it was
    built.  Calls that pass the same `types` dict, which must all be for
    the same f, share what earlier walks found; its keys are the
    numerators k of the preperiodic points k/d met so far.
    """
    d = f.d
    if d is None or x.denominator != d:
        return None
    return _walk(x.numerator, f.step, {} if types is None else types)


def orbit_type_text(kind: tuple[int, int] | None) -> str:
    """The text of an orbit type: periodic(m), type m_n, or divergent."""
    if kind is None:
        return "divergent"
    period, tail = kind
    return f"type {period}_{tail}" if tail else f"periodic({period})"


def preper_points(f: QuadMap) -> PreperGraph:
    """The complete graph of finite rational preperiodic points of f.

    d and u come from f, which derived them once; every coprime box
    numerator that no earlier walk recorded gets one orbit_classify call
    on the shared memo, with its point k/d built for that call and
    dropped after it, and only the vertices are built again for the
    graph.  So a box of up to BOX_BUDGET numerators never holds one
    Fraction per numerator (the memory of `graph` rests on this).
    Raises BudgetError when the candidate box exceeds BOX_BUDGET.
    """
    c, d, u = f.c, f.d, f.u
    if d is None:
        return PreperGraph(c=c, vertices=frozenset(), edges={})
    # candidates k/d with gcd(k, d) = 1 and |k| <= K, orbit_classify's escape bound
    K = _box_bound(d, u)
    if 2 * K + 1 > BOX_BUDGET:
        raise BudgetError(f"the candidate box of c = {c} holds {2 * K + 1} "
                          f"numerators, more than the budget of {BOX_BUDGET}")
    types: dict[int, tuple[int, int]] = {}
    for k in range(-K, K + 1):
        if k not in types and gcd(k, d) == 1:
            orbit_classify(f, Fraction(k, d), types)
    if not types:
        return PreperGraph(c=c, vertices=frozenset(), edges={})
    vertex = {k: Fraction(k, d) for k in types}
    edges = {}
    for k, v in vertex.items():
        image, r = divmod(k * k + u, d)
        if r or image not in vertex:
            raise RuntimeError(f"image {v * v + c} of vertex {v} escaped the vertex set")
        edges[v] = vertex[image]
    return PreperGraph(c=c, vertices=frozenset(edges), edges=edges)


# --- canonical shapes -------------------------------------------------------


def _shape_of_edges(edges: dict) -> str:
    """Canonical code of a functional digraph given as vertex -> image:
    the code string is the shape, "" for the empty graph, and graphs are
    isomorphic exactly when their codes are equal.

    One bottom-up pass: `_walk` gives every vertex its (period, tail), and
    the vertices are then taken in decreasing tail, so every child is
    coded before its image.  A vertex's tree code is "(" + its children's
    codes, sorted, + ")"; a tail vertex hands its code to its image, and a
    cycle vertex keeps it.  Each cycle then takes the minimal rotation of
    its vertices' codes, and the components are sorted and joined by ";".
    """
    if not edges:
        return ""
    # vertices relabelled 0..n-1; minimal rotations and sorting make the code label-free
    index = {v: i for i, v in enumerate(edges)}
    image = [index[w] for w in edges.values()]
    types: dict[int, tuple[int, int]] = {}
    for i in range(len(image)):
        _walk(i, image.__getitem__, types)
    children: list[list[str]] = [[] for _ in image]
    roots: dict[int, str] = {}  # cycle vertex -> the code of the tree it roots
    for i, (_period, tail) in sorted(types.items(), key=lambda item: item[1][1], reverse=True):
        code = "(" + "".join(sorted(children[i])) + ")"
        if tail:
            children[image[i]].append(code)
        else:
            roots[i] = code
    components = []
    while roots:
        i, code = roots.popitem()
        codes = [code]
        j = image[i]
        while j != i:
            codes.append(roots.pop(j))
            j = image[j]
        m = len(codes)
        best = min(codes[a:] + codes[:a] for a in range(m))
        components.append(f"{m}:" + ",".join(best))
    return ";".join(sorted(components))


def graph_shape(g: PreperGraph) -> str:
    return _shape_of_edges(g.edges)


def _build_graph(components) -> str:
    """Assemble an abstract graph from component specs and canonicalize.

    Each component is (m, tails) where tails is a per-cycle-vertex list:
    None for no tail, or an integer giving how many depth-2 vertices hang
    off that cycle vertex's single mirror tail.
    """
    edges = {}
    fresh = itertools.count()
    for m, tails in components:
        cyc = [f"c{next(fresh)}" for _ in range(m)]
        for i, v in enumerate(cyc):
            edges[v] = cyc[(i + 1) % m]
        for i, deep_count in enumerate(tails):
            if deep_count is None:
                continue
            tail = f"t{next(fresh)}"
            edges[tail] = cyc[i]
            for _ in range(deep_count):
                deep = f"d{next(fresh)}"
                edges[deep] = tail
    return _shape_of_edges(edges)


@cache
def admissible_shapes() -> frozenset[str]:
    """All graph shapes consistent with the classification theorems for
    cycles of length at most 3, built once and then shared.

    Cycle content is limited to: up to two fixed points, at most one
    2-cycle (possibly alongside the fixed points), or a single 3-cycle
    alone.  Every nonzero cycle point contributes exactly one mirror tail;
    a zero cycle point contributes none.  Depth-2 points come in a pair on
    a single tail (for cycle length 1 they may coincide, giving a single
    depth-2 chain), exclude coexisting cycles of other lengths, and no
    tail extends to depth 3.
    """
    catalog = {
        # no finite preperiodic points at all (e.g. c = 1)
        _build_graph([]),
        # one fixed point with its mirror (c = 1/4 only)
        _build_graph([(1, [0])]),
        # two fixed points, one of them zero (c = 0 only)
        _build_graph([(1, [0]), (1, [None])]),
        # two fixed points, both mirrored (generic fixed-point pair)
        _build_graph([(1, [0]), (1, [0])]),
        # coincident depth-2 pair on one branch (c = -2 only)
        _build_graph([(1, [1]), (1, [0])]),
        # depth-2 pair on one branch (generic 1_2 family)
        _build_graph([(1, [2]), (1, [0])]),
        # 2-cycle through zero (c = -1 only)
        _build_graph([(2, [0, None])]),
        # generic 2-cycle
        _build_graph([(2, [0, 0])]),
        # 2-cycle with a depth-2 pair (generic 2_2 family)
        _build_graph([(2, [2, 0])]),
        # fixed points and 2-cycle together
        _build_graph([(1, [0]), (1, [0]), (2, [0, 0])]),
        # generic 3-cycle
        _build_graph([(3, [0, 0, 0])]),
        # 3-cycle with a depth-2 pair (c = -29/16 only)
        _build_graph([(3, [2, 0, 0])]),
    }
    return frozenset(catalog)


# --- census scan ------------------------------------------------------------


def c_values_up_to_height(height: int) -> Iterator[tuple[int, int]]:
    """The pairs (u, v) of all c = u/v**2 in lowest terms with |u| <= height
    and v**2 <= height, v = 1, 2, ... and u increasing within each v, made
    one at a time as the iterator is read; none is kept.  Raises ValueError
    for a height below 1 at the call, before any iteration."""
    if height < 1:
        raise ValueError("height bound must be >= 1")
    return ((u, v) for v in range(1, isqrt(height) + 1)
            for u in range(-height, height + 1) if gcd(u, v) == 1)


class ScanResult(Value):
    """Census of a scan: per shape code, in sorted order, its count and up
    to three sample c; the (c, code) whose code is outside the catalog; and
    the c whose graph has more than 9 points counting infinity, with that
    size.  The codes are those of graph_shape, "" for the empty graph."""

    __slots__ = ("height", "census", "out_of_catalog", "bound_violations")

    def __init__(self, height: int, census: dict[str, tuple[int, list[Fraction]]],
                 out_of_catalog: list[tuple[Fraction, str]],
                 bound_violations: list[tuple[Fraction, int]]):
        set_field(self, "height", height)
        set_field(self, "census", census)
        set_field(self, "out_of_catalog", out_of_catalog)
        set_field(self, "bound_violations", bound_violations)


def _scan_chunk(pairs) -> tuple[dict[str, tuple[int, list[Fraction]]],
                                list[tuple[Fraction, str]], list[tuple[Fraction, int]]]:
    """The census of the c = u/v**2 of the pairs, the scan's only loop: per
    shape code, in sorted order, its count and its first three c; the
    (c, code) whose code is outside the catalog; and the (c, size) of every
    graph of more than 9 points counting infinity, both in the order of the
    pairs.  Each c is tallied as soon as its graph is settled, so the loop
    keeps no value or record per c.

    Every graph is settled on integers.  A c > 1/4, 4u > v**2, is empty at
    once: x**2 + c > x on all of R, so every real orbit grows without
    bound.  Otherwise the first-step survivors k >= 0 of its box, which
    the PointTable of v finds by two bisections, are walked on numerators
    with one shared memo.  A preperiodic k >= 0 is always a survivor, and
    -k is preperiodic exactly when k is, so the memo's keys and their
    negatives are exactly the numerators of the graph's vertices; the
    graph is empty when the memo is, and else its code is the canonical
    shape of k -> (k**2 + u)/v on those numerators and its size their
    number plus one.  Where the tally keeps a nonempty c as a sample, the
    first three of its code, the graph is built again by preper_points,
    which reads no table and walks the whole coprime box, and graph_shape;
    a code or size that differs raises RuntimeError.
    One table per denominator lives as long as the call; the boxes of a
    scan are small (|k| < 200 at SCAN_BUDGET), so the tables stay small
    too.
    """
    catalog = admissible_shapes()
    tables: dict[int, PointTable] = {}
    counts: dict[str, int] = {}
    samples: dict[str, list[Fraction]] = {}
    outside = []
    bound_violations = []
    for u, v in pairs:
        code, size = "", 1
        if 4 * u <= v * v:
            points = tables.get(v)
            if points is None:
                points = tables[v] = PointTable(v)
            survivors = points.candidates(u, _box_bound(v, u))
            if survivors:
                step, types = _numerator_step(v, u), {}
                for k in survivors:
                    _walk(k, step, types)
                if types:
                    vertices = {j for k in types for j in (k, -k)}
                    code = _shape_of_edges({k: (k * k + u) // v for k in vertices})
                    size = len(vertices) + 1
        n = counts.get(code, 0)
        counts[code] = n + 1
        if n < 3:
            if code:
                _check_census_graph(u, v, code, size)
            samples.setdefault(code, []).append(Fraction(u, v * v))
        if code not in catalog:
            outside.append((Fraction(u, v * v), code))
        if size > 9:
            bound_violations.append((Fraction(u, v * v), size))
    census = {code: (counts[code], samples[code]) for code in sorted(counts)}
    return census, outside, bound_violations


def _check_census_graph(u: int, v: int, code: str, size: int) -> None:
    """Raise RuntimeError unless the graph of c = u/v**2, built by
    preper_points and canonicalized by graph_shape, has the given code and
    size."""
    c = Fraction(u, v * v)
    g = preper_points(QuadMap(c))
    shape, graph_size = graph_shape(g), g.size_with_infinity()
    if (shape, graph_size) != (code, size):
        raise RuntimeError(f"the census found shape {code!r} and size {size} for c = {c}, "
                           f"but its graph has shape {shape!r} and size {graph_size}")


def scan(height: int) -> ScanResult:
    """Census of graph shapes over all c up to the given height.

    The scan runs in this process and starts no other; its one loop is
    _scan_chunk over the pairs of c_values_up_to_height, so the memory of
    a scan holds its point tables and its census, not one value per c.  A
    Fraction is built only for the samples kept, up to three per shape,
    whose nonempty graphs _scan_chunk has rebuilt as a PreperGraph from
    the whole coprime box to cross-check, and for any c outside the
    catalog or above the size bound.  Raises BudgetError above
    SCAN_BUDGET, and RuntimeError when a rebuilt sample disagrees with the
    integer census.
    """
    if height > SCAN_BUDGET:
        raise BudgetError(f"scan height {height} exceeds the scan budget of {SCAN_BUDGET}")
    return ScanResult(height, *_scan_chunk(c_values_up_to_height(height)))
