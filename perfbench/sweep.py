"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads census,jacobian] [--seeds 10]
                               [--first-seed 1] [--seconds S] [--trace 0|1]

For every workload and metric it prints the median over the seeds, the
quartile spread (Q3 - Q1 of statistics.quantiles(n=4)) as a share of the
median, and, for end-to-end metrics, the bound from BENCHMARK.json and
whether the spread stays under a third of it.  With one seed it is a
table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed} ({time.monotonic() - start:.0f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if k in bounds or args.seeds == 1), flush=True)
            status |= not result["correct"]
            runs.append(result)
        if not runs:
            continue
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {workload:12s} {metric:40s} {median:12.6g} {first['unit']}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                line += f"  spread {spread:.4f}"
                if metric in bounds:
                    ok = metric == "setup_s" or spread < bounds[metric] / 3
                    line += f"  bound {bounds[metric]}  {'ok' if ok else 'WIDE'}"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
