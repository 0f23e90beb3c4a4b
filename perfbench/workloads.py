"""The benchmark's workloads: seeded inputs, the CLI calls that run them,
and the checks of every output against golden results.

Each workload yields an endless stream of passes, each pass a list of
items; the runner times whole passes.  Inputs come from the seed only,
through pools fixed in the golden files, so any seed has golden outputs.

  census        `scan --height H`, H from a band of ten heights
  graph_tall    `graph --c` on c of height 1e5..1e8, plus family points
                (`family` then `graph`) and non-square denominators
  curve_verify  `verify curves --height H`, H from a band of ten heights
  jacobian      `jacobian --p p` with the order certified by Cantor
                arithmetic, plus the four exact verify suites once a run
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# verify curves reports two documented misprints as failures, by design
DOCUMENTED_FAILURES = ["e24-closure", "e24-on-curve", "e24-search",
                       "q17_e17-printed-forward-on-target"]
# bounded searches per `verify curves`: three sextics, five printed lists
# and the corrected e24 list
SEARCHES_PER_VERIFY = 9
SUITES = ("theorems", "descent", "jacobian", "padic")


@dataclass
class Item:
    """One unit of user-visible work: one or more CLI calls."""

    calls: list
    units: int = 1          # counted toward items_per_s
    latency: bool = True    # contributes a per-item latency sample
    props: dict = field(default_factory=dict)  # input properties
    post: object = None     # post(outputs) -> bool, inside the timed region
    check: object = None    # check(outputs) -> list of problems, after timing

    @property
    def weight(self) -> int:
        """Weight in attempted/failed: its units, or 1 for auxiliary calls."""
        return self.units or 1


def run_cli(argv):
    """Call preper.cli.main in-process; returns (exit code, stdout).

    The module attribute is looked up on every call so that a traced run
    reaches the wrapped main."""
    import preper.cli as cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue()


def digest(stdout: str) -> str:
    """sha256 of a call's stdout, with a top-level timing_ms removed by
    re-emitting the JSON under the CLI's own settings (which reproduces
    the bytes exactly)."""
    text = stdout.strip()
    try:
        payload = json.loads(text)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and "timing_ms" in payload:
        del payload["timing_ms"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def call_key(argv) -> str:
    return " ".join(argv)


def height_of(c: str) -> int:
    num, _, den = c.partition("/")
    return max(abs(int(num)), int(den or 1))


def c_values_at_height(h: int) -> int:
    """Number of c = u/v^2 in lowest terms with |u| <= h and v^2 <= h."""
    return sum(1 for v in range(1, isqrt(h) + 1)
               for u in range(-h, h + 1) if gcd(u, v) == 1)


_SEARCHED = {}


def searched_x(h: int) -> int:
    """x = a/b visited by one bounded search of height h: every a for
    b = 1, and a coprime to b for b > 1."""
    if h not in _SEARCHED:
        coprime = sum(1 for b in range(2, h + 1) for a in range(1, h + 1) if gcd(a, b) == 1)
        _SEARCHED[h] = 2 * h + 1 + 2 * coprime
    return _SEARCHED[h]


def _cycle(pool, rng):
    """Endless draws from pool, each pass over it in a fresh shuffled order."""
    pool = list(pool)
    while True:
        rng.shuffle(pool)
        yield from pool


def _spread(pool, rng, key, step: int = 5):
    """Endless draws from pool sorted by key, in mirrored pairs: rank i,
    then rank n - 1 - i, from a seeded offset i in steps coprime to n.
    The first few draws sit at evenly spaced ranks and each pair averages
    to the middle rank, so every run samples the whole range of key alike
    and its median item does not move with the seed's offset."""
    pool = sorted(pool, key=key)
    n = len(pool)
    if gcd(step, n) != 1:
        raise ValueError(f"step {step} would revisit a pool of {n}")
    i = rng.randrange(n)
    while True:
        yield pool[i]
        yield pool[n - 1 - i]
        i = (i + step) % n


class Workload:
    name = ""
    tail_pct = 50.0       # percentile reported as latency_tail_ms
    nominal_pass_s = 1.0  # pass duration at the seed, sizes traced runs
    item_base = ""        # what one item is, for failed_share

    def __init__(self, size: str, golden_dir: Path = GOLDEN_DIR):
        self.size = size
        self.golden = json.loads((golden_dir / f"{self.name}.json").read_text())

    def warmup(self) -> list:
        raise NotImplementedError

    def passes(self, seed: int):
        raise NotImplementedError

    def input_properties(self, items) -> dict:
        raise NotImplementedError

    def problems(self, item, outputs, post) -> list:
        """Golden comparison of every call, then the item's own check."""
        out = []
        for argv, (code, stdout) in zip(item.calls, outputs):
            want = self.golden["calls"].get(call_key(argv))
            got = [code, digest(stdout)]
            if want is None:
                out.append(f"{call_key(argv)}: no golden entry")
            elif got != want:
                out.append(f"{call_key(argv)}: exit/digest {got} != golden {want}")
        if post is False:
            out.append(f"{call_key(item.calls[0])}: certification failed")
        if item.check is not None and not out:
            out.extend(item.check(outputs))
        return out


class Census(Workload):
    """Many tiny candidate boxes: the per-c cost dominates."""

    name = "census"
    tail_pct = 70.0
    nominal_pass_s = 0.45
    item_base = "c values (all those of a scan whose output fails)"
    HEIGHTS = {"full": range(81, 91), "tiny": range(12, 14)}
    WARMUP_HEIGHT = 10

    def _item(self, h: int) -> Item:
        return Item([["scan", "--height", str(h)]], units=c_values_at_height(h),
                    props={"height": h}, check=_check_census)

    def warmup(self):
        return [self._item(self.WARMUP_HEIGHT)]

    def passes(self, seed):
        for h in _cycle(self.HEIGHTS[self.size], random.Random(f"census:{seed}")):
            yield [self._item(h)]

    def input_properties(self, items):
        hs = [it.props["height"] for it in items]
        return {"height_range": [min(hs), max(hs)], "scans": len(hs),
                "c_values": sum(it.units for it in items)}


def _check_census(outputs):
    payload = json.loads(outputs[0][1])
    out = []
    if payload["out_of_catalog"] or payload["bound_violations"]:
        out.append(f"scan {payload['height']}: out_of_catalog or bound_violations not empty")
    return out


class GraphTall(Workload):
    """One huge candidate box per call: the orbit walk dominates."""

    name = "graph_tall"
    tail_pct = 90.0
    nominal_pass_s = 4.2
    item_base = "graphs"
    # per pass: one square-denominator c from each height stratum, family
    # points from rotating families, and non-square c: 75% / 15% / 10%
    SHAPE = {"full": {"strata": 15, "families": 3, "nonsquare": 2},
             "tiny": {"strata": 2, "families": 1, "nonsquare": 1}}
    WARMUP_C = "-29/16"

    def warmup(self):
        return [Item([["graph", f"--c={self.WARMUP_C}"]])]

    def passes(self, seed):
        rng = random.Random(f"graph_tall:{seed}")
        pool, shape = self.golden["pool"], self.SHAPE[self.size]
        strata = [_spread(s, rng, height_of) for s in pool["strata"][:shape["strata"]]]
        families = {f: _cycle(points, rng) for f, points in sorted(pool["family"].items())}
        family_order = _cycle(sorted(families), rng)
        nonsquare = _cycle(pool["nonsquare"], rng)
        while True:
            items = [Item([["graph", f"--c={next(s)}"]], props={"kind": "square"})
                     for s in strata]
            for _ in range(shape["families"]):
                family, param, c = next(families[next(family_order)])
                items.append(Item([["family", family, f"--param={param}"],
                                   ["graph", f"--c={c}"]],
                                  props={"kind": "family"}, check=_check_family_graph))
            items += [Item([["graph", f"--c={next(nonsquare)}"]], props={"kind": "nonsquare"})
                      for _ in range(shape["nonsquare"])]
            for it in items:
                it.props["height"] = height_of(it.calls[-1][1][len("--c="):])
            rng.shuffle(items)
            yield items

    def input_properties(self, items):
        kinds = [it.props["kind"] for it in items]
        square = [it.props["height"] for it in items if it.props["kind"] == "square"]
        return {"graphs": len(items),
                "square_height_range": [min(square), max(square)] if square else None,
                "height_range": [min(it.props["height"] for it in items),
                                 max(it.props["height"] for it in items)],
                "square_denominator_share": round(1 - kinds.count("nonsquare") / len(kinds), 4),
                "family_share": round(kinds.count("family") / len(kinds), 4)}


def _check_family_graph(outputs):
    family = json.loads(outputs[0][1])
    graph = json.loads(outputs[1][1])
    out = []
    for point in family["points"]:
        x = point["x"]
        if x not in graph["vertices"] or graph["orbit_types"].get(x) != point["type"]:
            out.append(f"family {family['family']}@{family['parameter']}: "
                       f"{x} is not a vertex of type {point['type']}")
    return out


class CurveVerify(Workload):
    """Bounded point searches plus exact function-field identities."""

    name = "curve_verify"
    tail_pct = 75.0
    nominal_pass_s = 3.1
    item_base = "searched x-coordinates (all those of a failing verify call)"
    HEIGHTS = {"full": range(391, 401), "tiny": range(5, 7)}
    WARMUP_HEIGHT = 4

    def _item(self, h: int) -> Item:
        return Item([["verify", "curves", "--height", str(h)]],
                    units=SEARCHES_PER_VERIFY * searched_x(h), props={"height": h},
                    check=_check_documented_failures)

    def warmup(self):
        return [self._item(self.WARMUP_HEIGHT)]

    def passes(self, seed):
        for h in _cycle(self.HEIGHTS[self.size], random.Random(f"curve_verify:{seed}")):
            yield [self._item(h)]

    def input_properties(self, items):
        hs = [it.props["height"] for it in items]
        return {"height_range": [min(hs), max(hs)], "verify_calls": len(hs),
                "searches_per_call": SEARCHES_PER_VERIFY,
                "searched_x_computed": sum(it.units for it in items)}


def _check_documented_failures(outputs):
    code, stdout = outputs[0]
    failing = sorted(c["id"] for c in json.loads(stdout)["checks"] if c["status"] == "fail")
    if code != 1 or failing != DOCUMENTED_FAILURES:
        return [f"verify curves: exit {code}, failing checks {failing}"]
    return []


class Jacobian(Workload):
    """Point counts over F_p and F_{p^2}, whose cost grows as p^2."""

    name = "jacobian"
    tail_pct = 75.0
    nominal_pass_s = 4.5
    item_base = "primes plus verify suite calls"
    PRIMES = {"full": (23, 97), "tiny": (11, 19)}
    WARMUP_P = 7

    def _primes(self):
        lo, hi = self.PRIMES[self.size]
        return [int(p) for p in sorted(self.golden["orders"], key=int) if lo <= int(p) <= hi]

    def _item(self, p: int, tag: str) -> Item:
        return Item([["jacobian", "--p", str(p)]],
                    props={"p": p, "certifiable": _root_mod(p) is not None},
                    post=lambda outputs: _certify(p, outputs, random.Random(tag)))

    def warmup(self):
        return [self._item(self.WARMUP_P, "warmup")]

    def passes(self, seed):
        # every prime once a pass, in seeded order: the cost of a prime
        # grows as p^2, so a per-pass sample would move the latency
        # percentiles from one prime to the next
        rng = random.Random(f"jacobian:{seed}")
        primes = self._primes()
        suites = [Item([["verify", suite]], units=0, latency=False) for suite in SUITES]
        n = 0
        while True:
            rng.shuffle(primes)
            yield (suites if n == 0 else []) + [self._item(p, f"{seed}:{n}:{p}") for p in primes]
            n += 1

    def input_properties(self, items):
        primes = [it.props for it in items if "p" in it.props]
        return {"primes": len(primes),
                "prime_range": [min(p["p"] for p in primes), max(p["p"] for p in primes)],
                "certifiable_share": round(sum(p["certifiable"] for p in primes) / len(primes), 4),
                "suite_calls": sum(1 for it in items if "p" not in it.props)}


def _root_mod(p: int):
    from preper.curves import C1_32
    from preper.exactmath import FpPoly

    gp = FpPoly.from_poly(C1_32.g, p)
    return next((r for r in range(p) if gp(r) == 0), None)


def _certify(p: int, outputs, rng) -> bool:
    """Where g has a root mod p, the printed order N must kill seeded
    divisor classes on the odd model: N * D is the identity."""
    from preper import ffjac
    from preper.curves import C1_32

    code, stdout = outputs[0]
    if code != 0:
        return False
    root = _root_mod(p)
    if root is None:
        return True
    order = json.loads(stdout)["order"]
    model = ffjac.odd_model_transform(C1_32, p, root)
    roots = {y * y % p: y for y in range(p)}
    points = []
    while len(points) < 2:
        x = rng.randrange(p)
        fx = model.f(x)
        if fx in roots and all(x != q[0] for q in points):
            points.append((x, roots[fx]))
    # one class of the form [P - inf] and one of the form [P + Q - 2 inf]
    divisors = [ffjac.divisor_from_points(model, points[:1]),
                ffjac.divisor_from_points(model, points)]
    return all(ffjac.cantor_mul(order, d).is_identity() for d in divisors)


WORKLOADS = {w.name: w for w in (Census, GraphTall, CurveVerify, Jacobian)}
