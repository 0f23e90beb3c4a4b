"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload: an untraced and a traced run are correct and report
exactly the metric names and units of BENCHMARK.json; a run against a
golden copy with one corrupted entry counts that item as failed.  Last,
run.py exits non-zero, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import GOLDEN_DIR, WORKLOADS, call_key  # noqa: E402


def run(workload: str, trace: int, *extra, root: Path = ROOT):
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "1", "--seconds", "0.1",
                           "--trace", str(trace), "--size", "tiny", *extra],
                          cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


def expect(cond: bool, message: str, failures: list) -> None:
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        failures.append(message)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        tmp = Path(tmp)
        for name in WORKLOADS:
            for trace in (0, 1):
                code, result, err = run(name, trace)
                units = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
                expect(code == 0 and result is not None and result["correct"]
                       and result["failed"] == 0 and result["attempted"] >= 1,
                       f"{name} trace {trace}: correct run" + (f"\n{err}" if code else ""),
                       failures)
                expect(units == wanted[trace], f"{name} trace {trace}: metric names and units",
                       failures)
            # corrupt the golden entry of the first call the tiny run makes
            golden = tmp / "golden"
            shutil.rmtree(golden, ignore_errors=True)
            shutil.copytree(GOLDEN_DIR, golden)
            workload = WORKLOADS[name]("tiny", golden)
            key = call_key(next(workload.passes(1))[0].calls[0])
            data = json.loads((golden / f"{name}.json").read_text())
            data["calls"][key][1] = "0" * 64
            (golden / f"{name}.json").write_text(json.dumps(data))
            code, result, _ = run(name, 0, "--golden-dir", str(golden))
            expect(code == 0 and result is not None and not result["correct"]
                   and result["failed"] >= 1, f"{name}: corrupted golden entry counts as failed",
                   failures)

        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = run("census", 0, root=bare)
        expect(code != 0 and result is None, "no package: non-zero exit, no result", failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
