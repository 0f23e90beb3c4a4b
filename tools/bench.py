"""Write BENCH_<pr>.json: the benchmark and the tier-1 suite of one checkout.

    python3 tools/bench.py --pr N [--checkout DIR]

writes DIR/BENCH_N.json.  It runs, one after another and from the root
of the checkout (by default the one this script lives in), with seed 1:
  perfbench/run.py --seconds 25 --trace 0 for every workload,
  perfbench/run.py --seconds 25 --trace 1 for census and jacobian,
  one whole census, python -m preper scan --height 10000, with
  PYTHONPATH=src, once;
  the graph canonicalization kernel, dynamics._shape_of_edges, and the
  orbit walk, dynamics._walk, each in one child with PYTHONPATH=src,
  over a fixed corpus;
  the tier-1 suite, PYTHONPATH=src python -m pytest -q
  --continue-on-collection-errors, once.
Each run.py call runs with PYTHONDONTWRITEBYTECODE removed and
PYTHONPYCACHEPREFIX set to a fresh temporary directory, which a
--size tiny run of the same workload fills first, so no earlier
measurement's cache is reused and setup_s and peak_rss_mb are measured
warm-cached whatever the checkout holds.
The file holds the detail line and the result line that run.py printed
for each run, those bytecode-cache settings, the seed, the checkout's
`git rev-parse HEAD` and whether its tree had uncommitted changes, nproc,
the Python version, the census's wall time, the peak RSS of its process
(ru_maxrss from os.wait4 on that child alone, in MB of 1024 kB), its
number of c and of shapes, its out_of_catalog and bound_violations
counts and the sha256 of its stdout without timing_ms, under `kernels`
each kernel's median time per graph or per c and its corpus size, and
the tier-1 counts, exit code and wall time, and under `src` the number
of *.py files under the checkout's src/, their physical lines and their
code lines.
When a run is not correct, or the census or a kernel child fails, the
script writes nothing and exits 1.  It changes nothing under perfbench/.
The whole run takes about five minutes, the census about 3 s of it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

WORKLOADS = ("census", "graph_tall", "curve_verify", "jacobian")
TRACED = ("census", "jacobian")
SECONDS = 25
SEED = 1  # one seed for every file, so that files compare
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
CENSUS_HEIGHT = 10000  # the scan budget: about 1.2M values of c
# the kernel corpora, of every c up to 300: the 350 nonempty graphs and
# the 1,831 c with first-step survivors
KERNEL_HEIGHT = 300
KERNEL_REPEATS = 51
# run by `kernels` in a child with the checkout's src first on its path;
# the edge maps are on numerators, as the scan canonicalizes them
SHAPE_KERNEL = """
import json, statistics, sys, time
from fractions import Fraction
from preper.dynamics import QuadMap, _shape_of_edges, c_values_up_to_height, preper_points
height, repeats = map(int, sys.argv[1:])
corpus = []
for u, v in c_values_up_to_height(height):
    g = preper_points(QuadMap(Fraction(u, v * v)))
    if g.vertices:
        corpus.append({x.numerator: y.numerator for x, y in g.edges.items()})
times = []
for _ in range(repeats):
    start = time.perf_counter()
    for edges in corpus:
        _shape_of_edges(edges)
    times.append((time.perf_counter() - start) / len(corpus) * 1e6)
print(json.dumps({"graphs": len(corpus), "us_per_graph": round(statistics.median(times), 3)}))
"""
# the walk of every c that a scan walks, c <= 1/4 with first-step
# survivors in its PointTable, each with one memo, as _scan_chunk walks them
WALK_KERNEL = """
import json, statistics, sys, time
from preper.dynamics import PointTable, _box_bound, _numerator_step, _walk, c_values_up_to_height
height, repeats = map(int, sys.argv[1:])
tables, corpus = {}, []
for u, v in c_values_up_to_height(height):
    if 4 * u <= v * v:
        if v not in tables:
            tables[v] = PointTable(v)
        survivors = tables[v].candidates(u, _box_bound(v, u))
        if survivors:
            corpus.append((_numerator_step(v, u), survivors))
times = []
for _ in range(repeats):
    start = time.perf_counter()
    for step, survivors in corpus:
        types = {}
        for k in survivors:
            _walk(k, step, types)
    times.append((time.perf_counter() - start) / len(corpus) * 1e6)
print(json.dumps({"c_values": len(corpus), "survivors": sum(len(s) for _, s in corpus),
                  "us_per_c": round(statistics.median(times), 3)}))
"""
# how every run.py call caches bytecode, recorded in the BENCH file
BYTECODE_CACHE = {"PYTHONDONTWRITEBYTECODE": "removed",
                  "PYTHONPYCACHEPREFIX": "a fresh temporary directory per run, filled by a "
                                         "--size tiny run of the same workload first"}


def perfbench_run(root: Path, workload: str, trace: int) -> dict:
    """One run.py call: its detail and result lines, parsed, and whether
    the run is correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        # the prefix also holds the standard library's bytecode, so the
        # worker would compile every module the import probe did not load
        # and count that in peak_rss_mb; a tiny run compiles them first
        subprocess.run([*argv, "--seconds", "0.1", "--size", "tiny"], cwd=root, env=env,
                       capture_output=True)
        proc = subprocess.run([*argv, "--seconds", str(SECONDS)], cwd=root, env=env,
                              capture_output=True, text=True)
    run = {"workload": workload, "trace": trace, "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        run["stderr"] = proc.stderr[-2000:]
        run["correct"] = False
        return run
    run["detail"], run["result"] = json.loads(lines[-2]), json.loads(lines[-1])
    run["correct"] = run["result"]["correct"] is True
    return run


def tier1(root: Path) -> dict:
    """The tier-1 suite once: the counts of its summary line, its exit code
    and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.monotonic() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1), "exit": proc.returncode,
            "counts": counts, "summary": summary, "wall_s": round(wall, 2)}


def census(root: Path, height: int = CENSUS_HEIGHT) -> dict:
    """One whole scan, by default at the scan budget: its wall time,
    exit code, the peak RSS of its own process, the number of c, of
    shapes, of c outside the catalog and of c with more than 9 points
    counting infinity, and the sha256 of its stdout with timing_ms
    removed, re-emitted under the CLI's own JSON settings as
    perfbench/workloads.py::digest does, so files compare byte for byte."""
    argv = ("-m", "preper", "scan", "--height", str(height))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # the child writes to files, so wait4 cannot block it on a full pipe;
    # wait4 gives this child's own peak, where RUSAGE_CHILDREN would give
    # the largest of every child waited for so far
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env,
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode(errors="replace")
    run = {"command": "PYTHONPATH=src python " + " ".join(argv), "exit": proc.returncode,
           "wall_s": round(wall, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    if proc.returncode != 0:
        run["stderr"] = stderr[-2000:]
        return run
    payload = json.loads(stdout)
    run.update(c_values=sum(entry["count"] for entry in payload["census"].values()),
               shapes=len(payload["census"]),
               out_of_catalog=len(payload["out_of_catalog"]),
               bound_violations=len(payload["bound_violations"]))
    del payload["timing_ms"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    run["stdout_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return run


def kernels(root: Path, height: int = KERNEL_HEIGHT) -> dict:
    """The layer timings of the checkout's kernels, each measured in a
    fresh child, as medians over KERNEL_REPEATS passes: for graph
    canonicalization, the microseconds per graph that
    dynamics._shape_of_edges takes on the edge maps of the nonempty
    graphs of every c up to the height, and the number of those graphs;
    for the orbit walk, the microseconds per c that dynamics._walk takes
    on the first-step survivors of every c up to the height that has
    any, and the numbers of those c and survivors."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rows = {}
    for row, kernel, code in (("shape_of_edges", "dynamics._shape_of_edges", SHAPE_KERNEL),
                              ("orbit_walk", "dynamics._walk", WALK_KERNEL)):
        proc = subprocess.run([sys.executable, "-c", code, str(height), str(KERNEL_REPEATS)],
                              cwd=root, env=env, capture_output=True, text=True)
        entry = rows[row] = {"kernel": kernel, "height": height, "repeats": KERNEL_REPEATS,
                             "exit": proc.returncode}
        if proc.returncode != 0:
            entry["stderr"] = proc.stderr[-2000:]
        else:
            entry.update(json.loads(proc.stdout))
    return rows


def src_lines(root: Path) -> dict:
    """The *.py files under the checkout's src/, their physical lines, and
    their code lines: the lines that hold a token other than a comment and
    lie in no docstring (found with ast), so trimming docstrings or
    comments shows no code reduction.  Zeros when there is no src/."""
    files = lines = code = 0
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        tokens = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                                tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
                tokens.update(range(tok.start[0], tok.end[0] + 1))
        files += 1
        lines += len(source.splitlines())
        code += len(tokens - docstrings)
    return {"files": files, "lines": lines, "code_lines": code}


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()
    root = args.checkout.resolve()
    out = root / f"BENCH_{args.pr}.json"
    if not (root / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py in {root}", file=sys.stderr)
        return 2

    bench = {
        "pr": args.pr,
        "seed": SEED,
        "head": git(root, "rev-parse", "HEAD"),
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        # the CPUs this process may run on, where the platform can tell
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "python": platform.python_version(),
        "seconds": SECONDS,
        "bytecode_cache": BYTECODE_CACHE,
        "src": src_lines(root),
        "runs": [],
    }
    runs = bench["runs"]
    for workload, trace in [(w, 0) for w in WORKLOADS] + [(w, 1) for w in TRACED]:
        run = perfbench_run(root, workload, trace)
        print(f"{workload} --trace {trace}: {'correct' if run['correct'] else 'NOT correct'}",
              file=sys.stderr)
        runs.append(run)
    bad = [f"{r['workload']} --trace {r['trace']}" for r in runs if not r["correct"]]
    if bad:
        print(f"error: not correct: {', '.join(bad)}; nothing written", file=sys.stderr)
        return 1
    bench["census"] = census(root)
    if bench["census"]["exit"] != 0:
        print("error: the census scan failed; nothing written", file=sys.stderr)
        return 1
    bench["kernels"] = kernels(root)
    if any(entry["exit"] != 0 for entry in bench["kernels"].values()):
        print("error: a kernel timing failed; nothing written", file=sys.stderr)
        return 1
    bench["tier1"] = tier1(root)
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
