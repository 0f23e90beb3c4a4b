"""Benchmark of the preper command line tool.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from src/ in
fresh child interpreters (PYTHONPATH=src, PREPER_JOBS unset,
PYTHONHASHSEED=0), so nothing needs installing.  Every output is checked
against golden results saved from the package.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it gives the detail: failed_share and its base, the latency
percentile and sample count, the measured input properties and, traced,
every wrapped function's calls, total and self time.

--trace 0 reports the end-to-end metrics:
  setup_s          median time for a fresh interpreter to import preper.cli
  items_per_s      items completed per second of item time
  latency_p50_ms   median per-item latency
  latency_tail_ms  latency at the workload's tail percentile
  peak_rss_mb      peak RSS of the workload's child interpreter
Times are scaled to the reference speed: each is multiplied by
reference.NOMINAL_S over the time of the reference block run next to it
(see reference.py), because the shared cores this runs on drift in speed
far more than the bounds allow.  The detail line gives the unscaled
values and the block times.
--trace 1 reports the per-layer metrics of layers.py.

--size tiny and --golden-dir exist for selftest.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "graph_tall", "curve_verify", "jacobian")
DEADLINE_S = 170.0
SETUP_RUNS = 9
IMPORT_PROBE = ("import sys, time\nt0 = time.perf_counter()\nimport preper.cli\n"
                "sys.stdout.write(repr(time.perf_counter() - t0))")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PREPER_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, deadline: float) -> str:
    """Run a child interpreter to completion within the deadline; its stdout."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("deadline passed")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchError(f"child {argv[:2]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:2]} exited {proc.returncode}")
    return proc.stdout


def setup_seconds(runs: int, deadline: float) -> tuple[list[float], list[float]]:
    """Import time of preper.cli in `runs` fresh interpreters, after one
    unmeasured import that fills the bytecode cache; returns the times
    scaled to the reference speed, each by the reference blocks timed here
    around its child (reference.speed_s), and the raw times."""
    run_child(["-c", IMPORT_PROBE], deadline)
    reference.block()
    groups, raw = [[reference.seconds()]], []
    for _ in range(runs):
        raw.append(float(run_child(["-c", IMPORT_PROBE], deadline)))
        groups.append([reference.seconds()])
    scaled = [dt * reference.NOMINAL_S / reference.speed_s(groups, i)
              for i, dt in enumerate(raw)]
    return scaled, raw


def percentile(values, pct: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--golden-dir", type=Path, default=HERE / "golden")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "preper" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'preper'}", file=sys.stderr)
        return 2

    try:
        setup, raw_setup = ([], []) if args.trace else setup_seconds(SETUP_RUNS, deadline)
        out = run_child([str(HERE / "worker.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--size", args.size,
                         "--golden-dir", str(args.golden_dir.resolve())], deadline)
        raw = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    problems = list(raw["problems"])
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failed_share": {"value": raw["failed"] / raw["attempted"],
                               "base": raw["item_base"], "attempted": raw["attempted"]},
              "inputs": raw["inputs"]}
    if args.trace:
        metrics = raw["per_layer"]
        if raw["missing_calls"]:
            problems.append(f"wrappers recorded no calls: {raw['missing_calls']}")
        if abs(raw["self_sum_s"] - raw["trace_wall_s"]) > 1e-6 * raw["trace_wall_s"]:
            problems.append("self times do not add up to the traced wall time")
        detail["self_sum_s"] = raw["self_sum_s"]
        detail["trace_wall_s"] = raw["trace_wall_s"]
        detail["functions"] = raw["functions"]
    else:
        lat = raw["latencies_s"]
        tail, beyond = percentile(lat, raw["tail_pct"])
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (raw["units"] / raw["wall_s"], "1/s"),
            "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        detail["latency"] = {"samples": len(lat), "tail_pct": raw["tail_pct"],
                             "beyond_tail": beyond}
        raw_tail, _ = percentile(raw["raw_latencies_s"], raw["tail_pct"])
        refs = raw["reference_s"]
        detail["setup_samples_s"] = setup
        detail["scaled_item_s"] = raw["wall_s"]
        detail["unscaled"] = {
            "setup_s": statistics.median(raw_setup),
            "items_per_s": raw["units"] / raw["raw_wall_s"],
            "latency_p50_ms": 1000 * statistics.median(raw["raw_latencies_s"]),
            "latency_tail_ms": 1000 * raw_tail,
            "item_s": raw["raw_wall_s"]}
        detail["reference"] = {"nominal_s": reference.NOMINAL_S, "blocks": len(refs),
                               "median_s": statistics.median(refs),
                               "range_s": [min(refs), max(refs)]}
    detail["problems"] = problems
    print(json.dumps(detail))
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems and raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
