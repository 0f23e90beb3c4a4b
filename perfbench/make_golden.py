"""Regenerate the golden files: the input pools and, for every CLI call any
seed can make, its exit code and output digest.

    python3 perfbench/make_golden.py [workload ...]

Golden results record the behaviour of the package they were made from.
Regenerate them only when a change to the package is meant to change its
output, and say so in that change.
"""

from __future__ import annotations

import json
import random
import sys
from math import gcd, isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    GOLDEN_DIR, SUITES, Census, CurveVerify, GraphTall, Jacobian, call_key, digest, run_cli)

POOL_SEED = 20261017
# graph_tall: |u| log-uniform over 10^5..10^8 in STRATA equal slices of
# log10, PER_STRATUM values of c = u/d^2 in each.  d is prime: the graph
# walks the candidates k/d with gcd(k, d) = 1, a share phi(d)/d of a box
# of about 2 sqrt|u|, so a prime d ties the cost of a call to its height
# and the latency percentiles to the height strata rather than to the
# factorisations the seed happens to draw.
LOG_HEIGHTS = (5.0, 8.0)
STRATA = 15
PER_STRATUM = 32
FAMILY_IDS = ("p1", "p2", "p3", "p1and2", "t12", "t22")
PER_FAMILY = 12
NONSQUARE = 64
MAX_HEIGHT = 10 ** 8


def _rational(u: int, v: int) -> str:
    return str(u) if v == 1 else f"{u}/{v}"


def _log_uniform(rng, lo: float, hi: float) -> int:
    return int(10 ** rng.uniform(lo, hi))


def graph_pool(rng) -> dict:
    lo, hi = LOG_HEIGHTS
    width = (hi - lo) / STRATA
    strata = []
    for j in range(STRATA):
        stratum = []
        while len(stratum) < PER_STRATUM:
            u = rng.choice((-1, 1)) * _log_uniform(rng, lo + j * width, lo + (j + 1) * width)
            d = _prime_at_most(rng.randint(2, isqrt(abs(u))))
            if u % d:
                stratum.append(_rational(u, d * d))
        strata.append(stratum)

    family = {}
    for fam in FAMILY_IDS:
        params = [_rational(a, b) for b in range(1, 8) for a in range(-12, 13) if gcd(a, b) == 1]
        rng.shuffle(params)
        family[fam] = []
        for param in params:
            code, out = run_cli(["family", fam, f"--param={param}"])
            if code != 0:
                continue  # an excluded parameter
            c = json.loads(out)["c"]
            num, _, den = c.partition("/")
            if max(abs(int(num)), int(den or 1)) <= MAX_HEIGHT:
                family[fam].append([fam, param, c])
            if len(family[fam]) == PER_FAMILY:
                break

    nonsquare = []
    while len(nonsquare) < NONSQUARE:
        u = rng.choice((-1, 1)) * _log_uniform(rng, lo, hi)
        v = rng.randint(2, 10 ** 4)
        if isqrt(v) ** 2 != v and gcd(u, v) == 1:
            nonsquare.append(_rational(u, v))
    return {"strata": strata, "family": family, "nonsquare": nonsquare}


def record(calls) -> dict:
    out = {}
    for argv in calls:
        code, stdout = run_cli(argv)
        out[call_key(argv)] = [code, digest(stdout)]
    return out


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def _prime_at_most(n: int) -> int:
    while not _is_prime(n):
        n -= 1
    return n


def make(name: str) -> dict:
    if name == "census":
        heights = [*Census.HEIGHTS["full"], *Census.HEIGHTS["tiny"], Census.WARMUP_HEIGHT]
        return {"calls": record([["scan", "--height", str(h)] for h in heights])}
    if name == "curve_verify":
        heights = [*CurveVerify.HEIGHTS["full"], *CurveVerify.HEIGHTS["tiny"],
                   CurveVerify.WARMUP_HEIGHT]
        return {"calls": record([["verify", "curves", "--height", str(h)] for h in heights])}
    if name == "jacobian":
        lo = min(r[0] for r in Jacobian.PRIMES.values())
        hi = max(r[1] for r in Jacobian.PRIMES.values())
        primes = [Jacobian.WARMUP_P] + [p for p in range(lo, hi + 1) if _is_prime(p)]
        calls = record([["jacobian", "--p", str(p)] for p in primes]
                       + [["verify", suite] for suite in SUITES])
        orders = {}
        for p in primes:
            code, stdout = run_cli(["jacobian", "--p", str(p)])
            if code == 0:
                orders[str(p)] = json.loads(stdout)["order"]
        return {"orders": orders, "calls": calls}
    pool = graph_pool(random.Random(POOL_SEED))
    calls = [["graph", f"--c={GraphTall.WARMUP_C}"]]
    calls += [["graph", f"--c={c}"] for stratum in pool["strata"] for c in stratum]
    for entries in pool["family"].values():
        for fam, param, c in entries:
            calls += [["family", fam, f"--param={param}"], ["graph", f"--c={c}"]]
    calls += [["graph", f"--c={c}"] for c in pool["nonsquare"]]
    return {"pool": pool, "calls": record(calls)}


def main() -> None:
    names = sys.argv[1:] or ["census", "graph_tall", "curve_verify", "jacobian"]
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        data = make(name)
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(data['calls'])} calls", file=sys.stderr)


if __name__ == "__main__":
    main()
