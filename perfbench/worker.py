"""Run one workload in this interpreter and print its raw results as one
JSON line.  run.py starts this in a fresh child; see run.py for the
arguments.

Untraced: warm up, then run whole passes until --seconds have elapsed,
timing the reference block (reference.py) between slices of items and
scaling each item's time to the reference speed.
Traced: run a fixed number of passes untraced, then the same passes again
under the tracer, so the overhead ratio compares identical work and the
per-layer counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import time
from pathlib import Path

import reference
from workloads import GOLDEN_DIR, WORKLOADS, run_cli

# traced runs cover this share of --seconds with untraced passes, priced at
# the workload's nominal pass time, so the pass count depends on no clock
TRACE_SHARE = 0.5
# a measured run times the reference block after every slice of at least
# SLICE_S seconds of items, repeating it until the blocks have taken
# BLOCK_SHARE of the slice's time: the machine's speed is sampled for a
# fixed share of the run however long its items are
SLICE_S = 0.3
BLOCK_SHARE = 0.1


def run_passes(passes, seconds: float):
    """Run items pass by pass until `seconds` of pass time have elapsed;
    returns (records, wall).  Building a pass is not timed."""
    records, wall = [], 0.0
    for items in passes:
        start = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            outputs = [run_cli(argv) for argv in item.calls]
            post = item.post(outputs) if item.post else None
            records.append((item, outputs, post, time.perf_counter() - t0))
        wall += time.perf_counter() - start
        if wall >= seconds:
            break
    return records, wall


def run_measured(passes, seconds: float):
    """Run items pass by pass until `seconds` have elapsed, reference
    blocks included, timing a group of blocks first and after every slice
    of at least SLICE_S of items.  Each item's time is scaled by NOMINAL_S
    over reference.speed_s of the groups around its slice.  Returns
    (records with scaled times, raw item seconds, block groups)."""
    reference.block()  # unmeasured, like the package's warm-up call
    slices, groups, open_slice = [], [reference.group(4 * reference.NOMINAL_S)], []
    start = time.perf_counter()

    def close_slice():
        slices.append(open_slice)
        groups.append(reference.group(BLOCK_SHARE * sum(dt for *_, dt in open_slice)))

    for items in passes:
        for item in items:
            t0 = time.perf_counter()
            outputs = [run_cli(argv) for argv in item.calls]
            post = item.post(outputs) if item.post else None
            open_slice.append((item, outputs, post, time.perf_counter() - t0))
            if sum(dt for *_, dt in open_slice) >= SLICE_S:
                close_slice()
                open_slice = []
        if time.perf_counter() - start >= seconds:
            break
    if open_slice:
        close_slice()
    records, raw = [], []
    for i, records_i in enumerate(slices):
        factor = reference.NOMINAL_S / reference.speed_s(groups, i)
        records.extend((item, outputs, post, dt * factor)
                       for item, outputs, post, dt in records_i)
        raw.extend(dt for *_, dt in records_i)
    return records, raw, groups


def check(workload, records):
    attempted = failed = 0
    problems = []
    for item, outputs, post, _ in records:
        found = workload.problems(item, outputs, post)
        attempted += item.weight
        if found:
            failed += item.weight
            problems.extend(found)
    return attempted, failed, problems


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--golden-dir", type=Path, default=GOLDEN_DIR)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.size, args.golden_dir)
    warm, _ = run_passes([workload.warmup()], 0.0)
    result = {}
    if not args.trace:
        records, raw, groups = run_measured(workload.passes(args.seed), args.seconds)
        checked = warm + records
        wall = sum(dt for *_, dt in records)
        result["latencies_s"] = [dt for item, *_, dt in records if item.latency]
        result["raw_latencies_s"] = [dt for (item, *_), dt in zip(records, raw)
                                     if item.latency]
        result["raw_wall_s"] = sum(raw)
        result["reference_s"] = [t for g in groups for t in g]
    else:
        from layers import EXPECTED, per_layer_metrics, targets
        from spans import Tracer, install

        n = 1 if args.size == "tiny" else max(
            1, round(args.seconds * TRACE_SHARE / workload.nominal_pass_s))
        passes = list(itertools.islice(workload.passes(args.seed), n))
        untraced, wall = run_passes(passes, float("inf"))
        tracer = Tracer()
        install(tracer, targets(tracer))
        traced, _ = tracer.run(lambda: run_passes(passes, float("inf")))
        checked = warm + untraced + traced
        records = untraced
        metrics = per_layer_metrics(tracer, tracer.wall_s / wall)
        result["per_layer"] = metrics
        result["self_sum_s"] = tracer.self_sum_s()
        result["trace_wall_s"] = tracer.wall_s
        result["functions"] = {name: {"calls": c, "total_s": t, "self_s": s}
                               for name, (c, t, s) in sorted(tracer.stats.items())}
        result["missing_calls"] = [f for f in EXPECTED[workload.name]
                                   if metrics[f"{f}.calls"][0] == 0]
    attempted, failed, problems = check(workload, checked)
    result.update(
        attempted=attempted, failed=failed, problems=problems[:20],
        units=sum(item.units for item, *_ in records), wall_s=wall,
        tail_pct=workload.tail_pct, item_base=workload.item_base,
        inputs=workload.input_properties([item for item, *_ in records]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
