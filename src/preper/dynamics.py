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
escape bound |k|(|k| - d) <= |u|.  One walk, `_walk`, follows any step
function until its orbit repeats and records the (period, tail) of every
preperiodic point it meets, so classification, enumeration of the
candidate box and the cycles of canonical shapes all share it, and walks
that share a record never repeat an orbit.  The candidate box is finite
and iteration inside it must repeat, so classification and full
enumeration terminate unconditionally.  The box holds about 2*sqrt|u|
numerators, and `preper_points` refuses one of more than BOX_BUDGET
rather than run for hours on a short argument.

Graphs are canonicalized as functional digraphs: rooted trees hang off
cycle vertices, trees get sorted-parenthesis codes, cycles get the
lexicographically minimal rotation of their tree-code sequence.  The
catalog of shapes allowed by the classification theorems for cycle
lengths up to 3 is a derived catalog: twelve graphs (the empty one
included) assembled from the structural rules, not hard-coded codes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

# largest candidate box, 2*kmax + 1 numerators, that preper_points will walk
BOX_BUDGET = 10**6


@dataclass(frozen=True)
class QuadMap:
    """The polynomial z**2 + c."""

    c: Fraction

    def __call__(self, x: Fraction) -> Fraction:
        return x * x + self.c


@dataclass(frozen=True)
class OrbitClass:
    """Orbit type of a point: periodic(m), preperiodic(m, n), or divergent.

    m is the exact cycle length; n >= 1 is the number of steps before the
    orbit becomes periodic.
    """

    kind: str  # "periodic" | "preperiodic" | "divergent"
    period: int = 0
    tail: int = 0

    @classmethod
    def periodic(cls, m: int) -> "OrbitClass":
        return cls("periodic", m, 0)

    @classmethod
    def preperiodic(cls, m: int, n: int) -> "OrbitClass":
        return cls("preperiodic", m, n)

    @classmethod
    def divergent(cls) -> "OrbitClass":
        return cls("divergent")

    @property
    def is_divergent(self) -> bool:
        return self.kind == "divergent"

    def __str__(self) -> str:
        if self.kind == "periodic":
            return f"periodic({self.period})"
        if self.kind == "preperiodic":
            return f"type {self.period}_{self.tail}"
        return "divergent"


@dataclass(frozen=True)
class PreperGraph:
    """Finite rational preperiodic points of z**2 + c with edges x -> f(x).

    The fixed point at infinity is not a vertex; includes_infinity records
    that it exists so counts can add one for it.
    """

    c: Fraction
    vertices: frozenset[Fraction]
    edges: dict[Fraction, Fraction] = field(compare=False)
    includes_infinity: bool = True

    def orbit_types(self) -> dict[Fraction, OrbitClass]:
        f = QuadMap(self.c)
        types: dict = {}
        return {v: orbit_classify(f, v, types) for v in self.vertices}

    def size_with_infinity(self) -> int:
        return len(self.vertices) + (1 if self.includes_infinity else 0)


@dataclass(frozen=True, order=True)
class GraphShape:
    """Canonical code of a functional digraph up to isomorphism."""

    code: str

    def __str__(self) -> str:
        return self.code or "(empty)"


class NotQuadraticError(ValueError):
    pass


class BoxBudgetError(ValueError):
    """The candidate box of c holds more than BOX_BUDGET numerators."""


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


def _denominator_root(c: Fraction) -> int | None:
    """d with d**2 = denominator(c), or None when there is no such d."""
    D = c.denominator
    d = isqrt(D)
    return d if d * d == D else None


def _walk(start, step, types: dict):
    """(period, tail) of start under step, or None when step returns None
    (the orbit left the candidates).

    Every preperiodic point visited gets its (period, tail) in types, and
    the walk stops at the first point already there.
    """
    path: list = []
    y = start
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


def orbit_classify(f: QuadMap, x: Fraction, types: dict | None = None) -> OrbitClass:
    """Exact orbit type of x under z**2 + c; always terminates.

    Calls that pass the same `types` dict, which must all be for the same
    f, share what earlier walks found; its keys are the numerators k of
    the preperiodic points k/d met so far.
    """
    c = f.c
    d = _denominator_root(c)
    if d is None or x.denominator != d:
        return OrbitClass.divergent()
    u = c.numerator

    # an image sharing a prime p with d is no candidate either, but needs no
    # test: u is coprime to d, so p cannot divide image**2 + u and the next
    # step leaves
    def step(k: int) -> int | None:
        image, r = divmod(k * k + u, d)
        if r or abs(image) * (abs(image) - d) > abs(u):
            return None
        return image

    kind = _walk(x.numerator, step, {} if types is None else types)
    if kind is None:
        return OrbitClass.divergent()
    period, tail = kind
    return OrbitClass.preperiodic(period, tail) if tail else OrbitClass.periodic(period)


def preper_points(f: QuadMap) -> PreperGraph:
    """The complete graph of finite rational preperiodic points of f.

    Raises BoxBudgetError when the candidate box exceeds BOX_BUDGET.
    """
    c = f.c
    d = _denominator_root(c)
    types: dict[int, tuple[int, int]] = {}
    if d is not None:
        # candidates k/d with gcd(k, d) = 1 and k*k - k*d <= |c|*d*d
        cn, cd = abs(c).numerator, abs(c).denominator
        kmax = (d * (cd + isqrt(cd * cd + 4 * cd * cn))) // (2 * cd) + 1
        if 2 * kmax + 1 > BOX_BUDGET:
            raise BoxBudgetError(f"the candidate box of c = {c} holds {2 * kmax + 1} "
                                 f"numerators, more than the budget of {BOX_BUDGET}")
        for k in range(-kmax, kmax + 1):
            if gcd(k, d) == 1:
                orbit_classify(f, Fraction(k, d), types)
    vertices = frozenset(Fraction(k, d) for k in types)
    edges = {v: f(v) for v in vertices}
    for v, w in edges.items():
        assert w in vertices, f"image {w} of vertex {v} escaped the vertex set"
    return PreperGraph(c=c, vertices=vertices, edges=edges)


# --- canonical shapes -------------------------------------------------------


def _shape_of_edges(edges: dict) -> GraphShape:
    """Canonical code of a functional digraph given as vertex -> image."""
    if not edges:
        return GraphShape("")
    types: dict = {}
    for v in edges:
        _walk(v, edges.__getitem__, types)
    cyclic = {v for v, (_period, tail) in types.items() if tail == 0}
    children: dict = {v: [] for v in edges}
    for v in edges:
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
        while edges[cycle[-1]] != v:
            cycle.append(edges[cycle[-1]])
        done.update(cycle)
        codes = [tree_code(u) for u in cycle]
        m = len(cycle)
        best = min(tuple(codes[(i + j) % m] for j in range(m)) for i in range(m))
        components.append(f"{m}:" + ",".join(best))
    return GraphShape(";".join(sorted(components)))


def graph_shape(g: PreperGraph) -> GraphShape:
    return _shape_of_edges(g.edges)


def _build_graph(components) -> GraphShape:
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


def admissible_shapes() -> frozenset[GraphShape]:
    """All graph shapes consistent with the classification theorems for
    cycles of length at most 3.

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


def c_values_up_to_height(height: int) -> list[Fraction]:
    """All c = u/v**2 in lowest terms with |u| <= height and v**2 <= height,
    in a fixed deterministic order."""
    if height < 1:
        raise ValueError("height bound must be >= 1")
    out = []
    v = 1
    while v * v <= height:
        for u in range(-height, height + 1):
            if gcd(u, v) == 1:
                out.append(Fraction(u, v * v))
        v += 1
    return out


@dataclass
class ScanResult:
    height: int
    census: dict[GraphShape, tuple[int, list[Fraction]]]
    out_of_catalog: list[tuple[Fraction, GraphShape]]
    bound_violations: list[tuple[Fraction, int]]  # (c, size counting infinity)


def _scan_chunk(cs) -> list[tuple[str, Fraction, int]]:
    """Worker: c-list -> [(shape code, c, size_with_inf)] in list order."""
    graphs = (preper_points(QuadMap(c)) for c in cs)
    return [(graph_shape(g).code, g.c, g.size_with_infinity()) for g in graphs]


def scan(height: int, jobs: int = 1) -> ScanResult:
    """Census of graph shapes over all c up to the given height.

    The result is independent of the worker count: the pool returns chunk
    results in task order, so concatenating them is global iteration order.
    """
    cs = c_values_up_to_height(height)
    if jobs <= 1 or len(cs) < 2 * jobs:
        records = _scan_chunk(cs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = (len(cs) + jobs - 1) // jobs
        tasks = [cs[i:i + chunk] for i in range(0, len(cs), chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = [r for part in pool.map(_scan_chunk, tasks) for r in part]

    catalog = admissible_shapes()
    census: dict[GraphShape, tuple[int, list[Fraction]]] = {}
    out_of_catalog = []
    bound_violations = []
    for code, c, size in records:
        shape = GraphShape(code)
        count, samples = census.get(shape, (0, []))
        if len(samples) < 3:
            samples = samples + [c]
        census[shape] = (count + 1, samples)
        if shape not in catalog:
            out_of_catalog.append((c, shape))
        if size > 9:
            bound_violations.append((c, size))
    ordered = dict(sorted(census.items()))
    return ScanResult(height=height, census=ordered,
                      out_of_catalog=out_of_catalog,
                      bound_violations=bound_violations)
