import ast
import functools
import hashlib
import importlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import preper
from preper import cli
from preper.dynamics import QuadMap, c_values_up_to_height, preper_points, scan
from preper.exactmath import is_prime, parse_rational

# the package the tests import, so the child runs it without an install
SRC = os.path.dirname(os.path.dirname(preper.__file__))
# the checkout these tests belong to, where perfbench/ lives
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a family parameter at the budget (600-digit numerator and denominator)
# and one just beyond it (601 digits)
PARAM_600 = f"{10**599 + 1}/{10**599 + 3}"
PARAM_601 = f"{10**600 + 1}/{10**600 + 3}"


def run_python(*args, env=None):
    # the timeout turns a command that runs unbounded into a failure, not a hang
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})})


def run_cli(*args, env=None):
    return run_python("-m", "preper", *args, env=env)


def load_checkout_module(name, *path):
    # a file of the checkout, loaded fresh on every call; dataclasses looks
    # the module up in sys.modules while it makes a class
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the benchmark's own digest, read and never edited here: the sha256 of a
# report without its timing_ms, re-emitted under the CLI's own settings
digest = load_checkout_module("perfbench_workloads", "perfbench", "workloads.py").digest


def test_cli_imports_only_the_standard_library():
    # the package has no runtime dependencies: importing the command line
    # tool loads nothing beyond preper itself and the standard library
    r = run_python("-c", "import sys; before = set(sys.modules); import preper.cli; "
                         "print(*sorted(set(sys.modules) - before))")
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.split()
    assert "preper.cli" in loaded
    foreign = [m for m in loaded
               if m.split(".")[0] != "preper" and m.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


# the layers that graph, scan and family never run, so importing the
# package or its command line must not load them
HEAVY_MODULES = ("preper.curves", "preper.ffjac", "preper.descent", "preper.padic",
                 "preper.exactmath.polynomial", "preper.exactmath.bivariate",
                 "preper.exactmath.finitefield")
# standard-library modules that cost start-up time and that graph, scan and
# family never need: dataclasses alone imports inspect, ast, dis and tokenize
HEAVY_STDLIB = ("dataclasses", "inspect")


@pytest.mark.parametrize("module", ["preper.cli", "preper"])
def test_import_loads_only_the_layers_it_runs(module):
    r = run_python("-c", f"import sys; import {module}; print(*sorted(sys.modules))")
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert module in loaded
    assert sorted(loaded.intersection(HEAVY_MODULES)) == []
    assert sorted(loaded.intersection(HEAVY_STDLIB)) == []


# a child that reaches every name of preper.exactmath by ACCESS, checks that
# each is its submodule's own object, and prints the names not loaded at import
LAZY_PROBE = """
import importlib
import preper.exactmath as em
def from_import(name):
    scope = {}
    exec("from preper.exactmath import " + name, scope)
    return scope[name]
lazy = [name for name in em.__all__ if name not in vars(em)]
for name in em.__all__:
    value = ACCESS
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("preper.exactmath."), name
    assert getattr(home, name) is value, name
try:
    em.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
print(*lazy)
"""


@pytest.mark.parametrize("access", ["getattr(em, name)", "from_import(name)"])
def test_exactmath_names_resolve_on_first_access(access):
    r = run_python("-c", LAZY_PROBE.replace("ACCESS", access))
    assert r.returncode == 0, r.stderr
    assert set(r.stdout.split()) == {"BiPoly", "CurveFunctionField", "FieldElement", "FpPoly",
                                     "FqElem", "Poly", "RationalMap", "discriminant",
                                     "fp_residue", "fp_xgcd", "legendre_symbol", "resultant",
                                     "xgcd"}


def test_oracles_import_nothing_from_the_package():
    # an oracle that reused the code it checks would agree with it by
    # construction, so tests/oracles.py may not import preper at all
    path = os.path.join(os.path.dirname(__file__), "oracles.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert "fractions" in imported  # the walk does see the module's imports
    assert [m for m in imported if m.split(".")[0] == "preper"] == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a self-check of the package
    # must raise an error of its own instead
    pkg = os.path.dirname(preper.__file__)
    parsed, found = [], []
    for folder, _dirs, files in os.walk(pkg):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                parsed.append(os.path.relpath(path, pkg))
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                found += [f"{parsed[-1]}:{node.lineno}"
                          for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert "cli.py" in parsed  # the walk does see the package
    assert found == []


def test_only_descent_uses_the_f_p2_element_type():
    # point counting over F_{p^2} runs on ints; FqElem and
    # FpPoly.eval_fq are left for the 743 rows of descent alone
    pkg = os.path.dirname(preper.__file__)
    allowed = {os.path.join("exactmath", "finitefield.py"),
               os.path.join("exactmath", "__init__.py"), "descent.py"}
    names = {"FqElem", "eval_fq"}
    seen, found = set(), []
    for folder, _dirs, files in os.walk(pkg):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, pkg)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                used = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if used in names:
                    seen.add(rel)
                    if rel not in allowed:
                        found.append(f"{rel}:{node.lineno}: {used}")
    assert "descent.py" in seen  # the walk does see the remaining caller
    assert found == []


def test_no_layer_loads_dataclasses_or_inspect():
    # every value class derives its methods from preper.values, so even the
    # commands that load every layer never import dataclasses or inspect
    layers = ("preper.cli", "preper.curves", "preper.ffjac", "preper.descent", "preper.padic")
    r = run_python("-c", f"import sys; import {', '.join(layers)}; print(*sorted(sys.modules))")
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert loaded.issuperset(layers)
    assert sorted(loaded.intersection(HEAVY_STDLIB)) == []


def test_perfbench_targets_resolve_on_the_package(monkeypatch):
    # the traced benchmark wraps every (module, attribute) of layers.TARGETS,
    # so deleting or renaming one of them must fail here first
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "perfbench"))
    layers = importlib.import_module("layers")
    missing = []
    for _name, module, qual, _hook in layers.TARGETS:
        owner = importlib.import_module(f"preper.{module}")
        for part in qual.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{qual}")
    assert missing == []


@functools.cache
def traced_tiny_run(workload):
    # the detail line and the result line of a tiny traced run of the workload
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", "1", "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    return [json.loads(line) for line in r.stdout.strip().splitlines()[-2:]]


@pytest.mark.parametrize("workload", ["census", "graph_tall", "curve_verify", "jacobian"])
def test_traced_benchmark_reaches_every_expected_function(workload):
    # a tiny traced run checks its outputs against the goldens and fails
    # when a function that perfbench/layers.py::EXPECTED lists sees no call
    assert traced_tiny_run(workload)[1]["correct"] is True


def test_traced_census_charges_the_scan_loop_to_scan_chunk():
    # the census's per-c work is the plain loop of _scan_chunk, so the
    # tracer times it there; a generator's iteration would read as scan's
    # self time, and _scan_chunk would show only its creation
    functions = traced_tiny_run("census")[0]["functions"]
    assert functions["dynamics._scan_chunk"]["total_s"] \
        >= functions["dynamics.scan"]["total_s"] / 2


def load_bench_tool():
    return load_checkout_module("bench_tool", "tools", "bench.py")


def test_bench_tool_writes_nothing_when_a_run_is_not_correct(monkeypatch, capsys):
    # tools/bench.py runs every workload before it decides; one run that is
    # not correct leaves no BENCH file and exits 1, before the tier-1 run
    bench = load_bench_tool()
    calls = []

    def fake_run(root, workload, trace):
        calls.append((workload, trace))
        return {"workload": workload, "trace": trace, "correct": workload != "curve_verify"}

    monkeypatch.setattr(bench, "perfbench_run", fake_run)
    monkeypatch.setattr(bench, "git", lambda root, *args: "")
    monkeypatch.setattr(bench, "tier1", lambda root: pytest.fail("tier-1 ran"))
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "0", "--checkout", ROOT])
    assert bench.main() == 1
    assert calls == [(w, 0) for w in bench.WORKLOADS] + [("census", 1), ("jacobian", 1)]
    assert not os.path.exists(os.path.join(ROOT, "BENCH_0.json"))
    assert "not correct: curve_verify --trace 0" in capsys.readouterr().err


def test_bench_tool_runs_perfbench_on_a_fresh_bytecode_cache(monkeypatch):
    # each measured run.py call may write bytecode, into a directory of its
    # own that a tiny run of the same workload filled just before
    bench = load_bench_tool()
    calls = []

    def fake_run(argv, env, **kwargs):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        cache = env["PYTHONPYCACHEPREFIX"]
        assert os.path.isdir(cache) and os.listdir(cache) == ([] if "tiny" in argv else ["warm"])
        open(os.path.join(cache, "warm"), "w").close()
        calls.append((cache, "tiny" in argv))
        return subprocess.CompletedProcess(argv, 1, "", "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for _ in range(2):
        assert bench.perfbench_run(ROOT, "census", 0)["correct"] is False
    (a, tiny_a), (b, tiny_b), (c, tiny_c), (d, tiny_d) = calls
    assert (tiny_a, tiny_b, tiny_c, tiny_d) == (True, False, True, False)
    assert a == b != c == d and not any(os.path.exists(x) for x in (a, c))


def test_bench_tool_counts_cpus_where_affinity_is_unknown(monkeypatch, tmp_path):
    # without os.sched_getaffinity the file records os.cpu_count() instead
    # of raising AttributeError
    bench = load_bench_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    monkeypatch.setattr(bench, "perfbench_run", lambda root, workload, trace: {
        "workload": workload, "trace": trace, "correct": True})
    monkeypatch.setattr(bench, "census", lambda root: {"exit": 0})
    monkeypatch.setattr(bench, "kernels", lambda root: {"shape_of_edges": {"exit": 0}})
    monkeypatch.setattr(bench, "tier1", lambda root: {"exit": 0})
    monkeypatch.setattr(bench, "git", lambda root, *args: "")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "0", "--checkout", str(tmp_path)])
    assert bench.main() == 0
    written = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    assert written["nproc"] == 3 and len(written["runs"]) == 6 and written["tier1"] == {"exit": 0}
    # a checkout without src/ records zeros, beside every earlier key
    assert written["src"] == {"files": 0, "lines": 0, "code_lines": 0}
    assert sorted(written) == ["bytecode_cache", "census", "head", "kernels", "nproc", "pr",
                               "python", "runs", "seconds", "seed", "src", "tier1",
                               "uncommitted_changes"]


def test_bench_tool_counts_the_lines_of_src(tmp_path):
    # physical lines of every *.py file under src/ and the code lines among
    # them: no blank, comment-only or docstring line, but every line of a
    # string that is no docstring, even one that looks like a comment
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text('"""Module docstring\n'
                      'on two lines."""\n'
                      "\n"
                      "# a comment\n"
                      "import os  # a trailing comment\n"
                      "\n"
                      "\n"
                      "class A:\n"
                      "    'Class docstring.'\n"
                      "\n"
                      "    def f(self, x):\n"
                      '        """Function docstring\n'
                      "\n"
                      '        on three lines."""\n'
                      '        s = """no docstring\n'
                      '# still the string"""\n'
                      "        return (x,\n"
                      "                # inside the brackets\n"
                      "                s)\n")
    (tmp_path / "src" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("no python\n")
    counts = load_bench_tool().src_lines(tmp_path)
    # code: import, class, def, the two string lines, return, s)
    assert counts == {"files": 2, "lines": 19, "code_lines": 7}


def test_bench_tool_census_counts_the_scan_it_runs():
    # the BENCH file's census reads its counts from the scan's own JSON
    bench = load_bench_tool()
    # Linux keeps the peak RSS of the process that starts a child as the
    # floor of the child's ru_maxrss, so with 64 MB more held here a scan
    # started from this process would read this process's peak
    ballast = b"\x01" * (64 << 20)
    run = bench.census(Path(ROOT), height=20)
    del ballast
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = scan(20)
    assert run["exit"] == 0 and run["command"].endswith("scan --height 20")
    assert (run["c_values"], run["shapes"], run["out_of_catalog"], run["bound_violations"]) \
        == (len(list(c_values_up_to_height(20))), len(expected.census), 0, 0)
    # the peak RSS of the scan's own process, read by wait4 on its pid;
    # the wall time and the peak are the medians of every run's
    assert 0 < run["peak_rss_mb"] < own_peak - 32
    assert len(run["wall_s_runs"]) == len(run["peak_rss_mb_runs"]) == bench.CENSUS_RUNS == 5
    assert run["wall_s"] == sorted(run["wall_s_runs"])[2]
    assert run["peak_rss_mb"] == sorted(run["peak_rss_mb_runs"])[2]
    assert "error" not in run


def test_bench_tool_fails_when_the_census_output_differs_between_runs(monkeypatch, capsys):
    # every census run must print the same census; the fourth prints
    # another count, so the runs stop there and the tool writes nothing
    bench = load_bench_tool()
    runs = []

    def fake_scan(root, argv, env):
        runs.append(argv)
        payload = {"census": {"": {"count": 7 if len(runs) == 4 else 6, "samples": ["1"]}},
                   "out_of_catalog": [], "bound_violations": [], "timing_ms": len(runs)}
        return 0, 0.5, 20.0, json.dumps(payload), ""

    monkeypatch.setattr(bench, "scan_once", fake_scan)
    run = bench.census(Path(ROOT), height=20)
    assert len(runs) == 4 and run["error"] == "the census stdout differs between runs"
    first, *same, last = run["stdout_sha256_runs"]
    assert len(same) == 2 and set(same) == {first} == {run["stdout_sha256"]} != {last}
    monkeypatch.setattr(bench, "perfbench_run", lambda root, workload, trace: {
        "workload": workload, "trace": trace, "correct": True})
    monkeypatch.setattr(bench, "git", lambda root, *args: "")
    monkeypatch.setattr(bench, "kernels", lambda root: pytest.fail("kernels ran"))
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "0", "--checkout", ROOT])
    runs.clear()
    assert bench.main() == 1
    assert "differs between runs; nothing written" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(ROOT, "BENCH_0.json"))


@functools.cache
def tiny_kernel_rows() -> dict:
    """The kernels entry of the bench tool at height 20, run once for the
    tests that read it."""
    return load_bench_tool().kernels(Path(ROOT), height=20)


def test_bench_tool_times_shape_canonicalization_on_every_nonempty_graph():
    # the kernels entry canonicalizes the graph of every c up to its height
    # whose graph is not empty, and records that count beside the time
    shape = tiny_kernel_rows()["shape_of_edges"]
    empty, _samples = scan(20).census[""]
    assert shape["exit"] == 0 and shape["kernel"] == "dynamics._shape_of_image(_rank_image)"
    assert shape["graphs"] == len(list(c_values_up_to_height(20))) - empty
    assert shape["us_per_graph"] > 0


def test_bench_tool_times_the_scan_memo_on_the_same_graphs():
    # the census_shapes row codes the same nonempty graphs through one memo
    # keyed by rank image, and counts the graphs and the distinct images
    memo = tiny_kernel_rows()["census_shapes"]
    images = set()
    for u, v in c_values_up_to_height(20):
        g = preper_points(QuadMap(Fraction(u, v * v)))
        order = sorted(g.vertices)
        if order:
            images.add(tuple(order.index(g.edges[x]) for x in order))
    empty, _samples = scan(20).census[""]
    assert memo["exit"] == 0 and memo["kernel"] == "dynamics._shape_of_image"
    assert memo["graphs"] == len(list(c_values_up_to_height(20))) - empty
    assert memo["distinct_images"] == len(images)
    assert memo["us_per_graph"] > 0


def test_bench_tool_times_cantor_addition_on_a_seeded_sample():
    # the cantor_add row adds seeded pairs from the whole group of the odd
    # model of c1_32 at its prime, whose size is the Jacobian's order
    from preper.curves import C1_32
    from preper.exactmath import FpPoly
    from preper.ffjac import jacobian_order

    row = tiny_kernel_rows()["cantor_add"]
    bench = load_bench_tool()
    assert row["exit"] == 0 and row["kernel"] == "ffjac.cantor_add"
    assert (row["prime"], row["pairs"]) == (bench.CANTOR_PRIME, bench.CANTOR_PAIRS)
    p = row["prime"]
    assert FpPoly.from_poly(C1_32.g, p)(row["root"]) == 0
    assert row["classes"] == jacobian_order(C1_32, p)
    assert row["us_per_add"] > 0


def test_bench_tool_times_the_orbit_walk_on_every_c_a_scan_walks():
    # the orbit-walk row walks the first-step survivors k >= 0 of every
    # c <= 1/4 up to its height that has any, and counts both
    walk = tiny_kernel_rows()["orbit_walk"]
    c_values = survivors = 0
    for u, v in c_values_up_to_height(20):
        if 4 * u > v * v:
            continue
        step, k, found = QuadMap(Fraction(u, v * v)).step, 0, 0
        while k * (k - v) <= abs(u):  # the box numerators k >= 0
            found += step(k) is not None
            k += 1
        c_values += found > 0
        survivors += found
    assert walk["exit"] == 0 and walk["kernel"] == "dynamics._walk"
    assert (walk["c_values"], walk["survivors"]) == (c_values, survivors)
    assert walk["us_per_c"] > 0


def test_bench_tool_writes_nothing_when_a_kernel_timing_fails(monkeypatch, tmp_path, capsys):
    # a checkout whose package cannot be imported fails every kernel child,
    # and one failing row alone is enough: the script exits 1 before the
    # tier-1 run
    bench = load_bench_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    (tmp_path / "src" / "preper").mkdir(parents=True)
    (tmp_path / "src" / "preper" / "__init__.py").write_text("raise ImportError('broken')\n")
    monkeypatch.setattr(bench, "perfbench_run", lambda root, workload, trace: {
        "workload": workload, "trace": trace, "correct": True})
    monkeypatch.setattr(bench, "census", lambda root: {"exit": 0})
    monkeypatch.setattr(bench, "tier1", lambda root: pytest.fail("tier-1 ran"))
    monkeypatch.setattr(bench, "git", lambda root, *args: "")
    monkeypatch.setattr(sys, "argv", ["bench.py", "--pr", "0", "--checkout", str(tmp_path)])
    rows = bench.kernels(tmp_path)
    assert sorted(rows) == ["cantor_add", "census_shapes", "orbit_walk", "shape_of_edges"]
    assert all(entry["exit"] != 0 for entry in rows.values())
    # each row in turn is the only one that fails: the others' children
    # run a script that does not import the package
    kernels = ("SHAPE_KERNEL", "CENSUS_SHAPES_KERNEL", "WALK_KERNEL", "CANTOR_KERNEL")
    for failing in kernels:
        with monkeypatch.context() as mp:
            for name in kernels:
                if name != failing:
                    mp.setattr(bench, name, "print('{}')")
            assert bench.main() == 1
        assert not (tmp_path / "BENCH_0.json").exists()
        assert "a kernel timing failed" in capsys.readouterr().err


def test_bench_tool_census_digests_the_scan_report(capsys):
    # the BENCH file's census keeps the sha256 of the scan's report without
    # timing_ms, so two files show whether the census kept its bytes; the
    # tool keeps its own copy of the digest, since it runs on any checkout,
    # and this pins that copy against the benchmark's
    run = load_bench_tool().census(Path(ROOT), height=30)
    assert cli.main(["scan", "--height", "30"]) == 0
    assert run["stdout_sha256"] == digest(capsys.readouterr().out)


def test_graph_json_minus_29_16():
    r = run_cli("graph", "--c", "-29/16")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["c"] == "-29/16"
    assert len(d["vertices"]) == 8
    assert d["size_with_infinity"] == 9
    assert d["in_catalog"] is True
    assert d["orbit_types"]["3/4"] == "type 3_2"
    assert d["edges"]["3/4"] == "-5/4"
    # round-trip is byte-identical under the emitter's own settings
    assert json.dumps(json.loads(r.stdout), sort_keys=True, separators=(",", ":")) \
        == r.stdout.strip()


def test_graph_dot_output():
    r = run_cli("graph", "--c", "-29/16", "--format", "dot")
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")
    assert r.stdout.count("doublecircle") == 3  # the 3-cycle vertices
    assert '"3/4" -> "-5/4"' in r.stdout


def test_graph_empty_and_usage_error():
    r = run_cli("graph", "--c", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["vertices"] == []
    r = run_cli("graph", "--c", "x")
    assert r.returncode == 2


# sha256 of the stdout of graph --c in JSON and in dot for the twelve c
# that realize the catalogue in theorems_report, one of each shape, so a
# change to the shape field of a nonempty graph changes a digest
CATALOG_GRAPH_SHA256 = {
    "1": ("37f9717e84578a4bbfabec5b1b9c2dd859b64cdb45bf36c287dd9510446ec0d4",
          "251aabe8904b85bfc95f584ff7ee1a27d2744398a979fc301f6b0223c622fd62"),
    "1/4": ("0e21a69128bbbb304489528400cfd48b89c928d5696364edae6137c4b9656b14",
            "564e5c76f04bfa7a4ae2e2ec8a4ebb3d9c84e6d04b86858cb3e15e1e7910fda6"),
    "0": ("77fde2262eb1c7908e872b5c47a0168b619410f80c7f91716f6bd7495fad5c73",
          "330e9d0539c720cd727f50e0c86d921800f1672c6490d2d29b8bce8e36a8190b"),
    "-3/4": ("f47f219dceade37307f0ddf2861da70a1a9299dc34cf668055bc773173bc3ee6",
             "5514d86c3922a4632efdaa82b213befd94b3ce8849348a939185b30da6a6e140"),
    "-2": ("43fcdafe89974d7d1aae61075ca31aba9f0bb9bf637163dc179f3947fd99edba",
           "5f097fa26cbd16853f3cb0d773373026dda9d987efb72af1358c175ed4f373aa"),
    "-10/9": ("cbf608ca46d859c023e870f06c08b8ba016405b62a08775ce908a8ae88007fd6",
              "82ead652fff13440a34b465fb835fe47a5e93dae5fffc57d4bac100eda8a9304"),
    "-1": ("2ecc1f6fc019833f5f2f9cfd9b086111bb0172ea4d7dd9e73f1c044b9845d12a",
           "799045c58ebad08bf7256c69ad6712c94fdf709a1bddf6b1b73ed33db64aa3eb"),
    "-7/4": ("b20b4eebaae90599a80bd510da288f8893736bd96080d9bf69d5062b185746b9",
             "a85f2b4f347ae5cffb6c4cd6ff5d3718deba46dffba168c76ea710679981348d"),
    "-37/9": ("4d44d5f197bf57e48dc03466c5fb734bced72358144750c27e640b03ceb694fa",
              "24b3f2be48d4cba6ce38a5aab4e6875b87ef4c619909335a375e5c9455345405"),
    "-21/16": ("ce20e205aeda4a84fa6c98551ae6087cfa5c758026c1fff6e9cc722d14ad047f",
               "7eb04468f326e974cd7b27ed48d9e705fac2e2868ff4cbe46559e88701fe150d"),
    "-301/144": ("6b18653bd8eeb0a1a6603496b3ef5027e0dea212e3fb86e09a2f15b06cb22aca",
                 "d929bde984357923cd18eac2ae289ce9ac8efd18ae95f92ca3884f28162bf04d"),
    "-29/16": ("7a99db021f5a8bff364582d09596950dbaad37d33d4a7d4ab98f149e91caf1ff",
               "4fb395edf0b15a7400173ad3f27326a60c3bbee93eafe4113c6e383993d4b7e4"),
}


def test_graph_bytes_of_every_catalog_shape_are_pinned(capsys):
    shapes = set()
    for c, digests in CATALOG_GRAPH_SHA256.items():
        outputs = []
        for fmt in ("json", "dot"):
            assert cli.main(["graph", "--c", c, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs) == digests, c
        shapes.add(json.loads(outputs[0])["shape"])
    assert len(shapes) == 12


@pytest.mark.parametrize("signed, plain", [
    (["graph", "--c", "-3/-4"], ["graph", "--c", "3/4"]),
    (["graph", "--c", "-3/-4", "--format", "dot"], ["graph", "--c", "3/4", "--format", "dot"]),
    (["graph", "--c", "-1/+2"], ["graph", "--c", "-1/2"]),
    (["family", "p3", "--param", "-1/+2"], ["family", "p3", "--param", "-1/2"]),
    (["family", "p3", "--param", "-3/-4"], ["family", "p3", "--param", "3/4"]),
])
def test_a_signed_denominator_prints_the_bytes_of_its_value(signed, plain, capsys):
    # a leading "-" makes the value look like an option unless the
    # negative-number matcher takes the sign of the denominator too
    results = []
    for argv in (signed, plain):
        code = cli.main(argv)
        results.append((code, capsys.readouterr().out))
    assert results[0] == results[1] and results[0][1]


rational_literals = st.builds(
    lambda a, n, d: a + n + d,
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", min_size=1, max_size=12),
    st.one_of(st.just(""), st.builds(lambda s, t: "/" + s + t, st.sampled_from(["", "+", "-"]),
                                     st.text("0123456789", min_size=1, max_size=12))))


@settings(max_examples=300, deadline=None)
@given(rational_literals)
@example("-3/-4")
@example("-1/+2")
@example("-3/-0")
def test_graph_parses_c_as_parse_rational_does(lit):
    # the parser only, so no graph is built
    try:
        expected = parse_rational(lit)
    except ValueError:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["graph", "--c", lit])
        assert exc.value.code == 2
    else:
        assert cli.build_parser().parse_args(["graph", "--c", lit]).c == expected


def test_every_exported_name_resolves():
    # a stale name in __all__ breaks only a star import, not import preper
    assert all(hasattr(preper, name) for name in preper.__all__)
    scope = {}
    exec("from preper import *", scope)
    assert set(preper.__all__) <= set(scope)


def test_family_command():
    r = run_cli("family", "p3", "--param", "1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["c"] == "-29/16" and d["ok"] is True
    r = run_cli("family", "t32")
    assert json.loads(r.stdout)["c"] == "-29/16"
    r = run_cli("family", "p2", "--param", "0")
    assert r.returncode == 1
    r = run_cli("family", "bogus", "--param", "1")
    assert r.returncode == 2


def test_family_accepts_a_parameter_at_the_budget(capsys):
    # 600-digit numerator and denominator: c and every point still print
    for family in ("p1", "p2", "p3", "p1and2", "t12", "t22"):
        assert cli.main(["family", family, "--param", PARAM_600]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["ok"] is True and d["parameter"] == PARAM_600


def test_curve_points_command():
    r = run_cli("curve-points", "--curve", "c1_32", "--height", "100")
    d = json.loads(r.stdout)
    assert r.returncode == 0 and d["count"] == 8
    r = run_cli("curve-points", "--curve", "nope")
    assert r.returncode == 2


def test_jacobian_command():
    r = run_cli("jacobian", "--p", "5")
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == 43
    r = run_cli("jacobian", "--p", "743")
    assert r.returncode == 1


def test_jacobian_tests_the_size_of_p_before_its_primality(monkeypatch, capsys):
    # 10^4299 + 7 has no prime factor below 41, so Miller-Rabin on it takes
    # seconds; the size test refuses it first
    calls = []
    is_prime = cli.is_prime

    def recorder(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", recorder)
    assert cli.main(["jacobian", "--p", str(10**4299 + 7)]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: --p must be a prime")
    assert cli.main(["jacobian", "--p", "4"]) == 2  # small enough, so tested for primality
    assert calls == [4]


def test_scan_does_not_read_preper_jobs(monkeypatch):
    # the scan has no --jobs and reads no PREPER_JOBS: a value that was
    # once a usage error changes neither the exit code nor the bytes
    def census(env=None):
        r = run_cli("scan", "--height", "3", env=env)
        assert r.returncode == 0 and r.stderr == ""
        return digest(r.stdout)

    monkeypatch.delenv("PREPER_JOBS", raising=False)
    assert census({"PREPER_JOBS": "x"}) == census()


def test_scan_height_300_census_bytes_are_pinned():
    # sha256 of the census report with timing_ms removed; a change to any
    # count, sample or shape code at height <= 300 changes it
    r = run_cli("scan", "--height", "300")
    assert r.returncode == 0
    assert digest(r.stdout) == \
        "b3a562a8eebcfc550c322ef3389797a5a85209375dca5cb9561fca28e1ed82a5"


def test_scan_height_1000_census_bytes_are_pinned():
    # sha256 of the census report with timing_ms removed, computed with the
    # scan as it was before empty graphs were found on integers alone, so
    # the integer-first scan keeps every count, sample and shape code of
    # the 38,705 c up to height 1000
    r = run_cli("scan", "--height", "1000")
    assert r.returncode == 0
    assert digest(r.stdout) == \
        "942e554f9029f3a8ee81df6b8a72c1ca65c02ebb79c6b4393dab60d1a8327674"


def test_scan_height_3000_census_bytes_are_pinned():
    # sha256 of the census report with timing_ms removed, computed with the
    # scan as it was before nonempty graphs were canonicalized on integers,
    # so the integer census keeps every count, sample and shape code of the
    # 3,430 nonempty graphs up to height 3000
    r = run_cli("scan", "--height", "3000")
    assert r.returncode == 0
    assert digest(r.stdout) == \
        "1dc66ca51418b1f1758c5ed095817cf57da173b2a5ef096cddf9201c297c3b6c"


@pytest.mark.parametrize("height", range(81, 91))
def test_scan_matches_the_census_benchmark_golden(height, capsys):
    # the census benchmark's heights, run in-process and compared, read-only,
    # with the sha256 of the golden output (the report without timing_ms)
    with open(os.path.join(ROOT, "perfbench", "golden", "census.json")) as fh:
        golden = json.load(fh)["calls"][f"scan --height {height}"]
    code = cli.main(["scan", "--height", str(height)])
    assert [code, digest(capsys.readouterr().out)] == golden


@pytest.mark.parametrize("p", list(filter(is_prime, range(7, 114))))
def test_jacobian_matches_the_jacobian_benchmark_golden(p, capsys):
    # every prime of the jacobian benchmark's golden file, run in-process
    # and compared, read-only, with the sha256 of the golden output (the
    # report carries no timing_ms)
    with open(os.path.join(ROOT, "perfbench", "golden", "jacobian.json")) as fh:
        golden = json.load(fh)["calls"][f"jacobian --p {p}"]
    code = cli.main(["jacobian", "--p", str(p)])
    text = capsys.readouterr().out.strip()
    assert "timing_ms" not in json.loads(text)
    assert [code, hashlib.sha256(text.encode()).hexdigest()] == golden


@pytest.mark.parametrize("height", [4, 5, 6, 395])
def test_verify_curves_matches_the_curve_verify_benchmark_golden(height, capsys):
    # the curve_verify benchmark's warm-up, tiny heights and one full height,
    # run in-process and compared, read-only, with the sha256 of the golden
    # output (the report without timing_ms)
    with open(os.path.join(ROOT, "perfbench", "golden", "curve_verify.json")) as fh:
        golden = json.load(fh)["calls"][f"verify curves --height {height}"]
    code = cli.main(["verify", "curves", "--height", str(height)])
    assert [code, digest(capsys.readouterr().out)] == golden


@pytest.mark.parametrize("suite", ["theorems", "descent", "jacobian", "padic"])
def test_verify_suites_match_the_jacobian_benchmark_golden(suite, capsys):
    # the four verify suites of the jacobian benchmark, run in-process and
    # compared, read-only, with the sha256 of the golden output (the report
    # without timing_ms)
    with open(os.path.join(ROOT, "perfbench", "golden", "jacobian.json")) as fh:
        golden = json.load(fh)["calls"][f"verify {suite}"]
    code = cli.main(["verify", suite])
    assert [code, digest(capsys.readouterr().out)] == golden


def test_graph_tall_calls_match_their_benchmark_golden_in_one_process(capsys):
    # every family call and every graph of a non-square denominator of the
    # graph_tall benchmark's golden file, compared, read-only, with the
    # sha256 of the golden output (these reports carry no timing_ms).  One
    # process runs them all, each also with its option value as a separate
    # argument (which the negative-number matcher lets through), between a
    # usage error and jacobian --p 7: the parser that main reuses carries
    # nothing from one call to the next
    with open(os.path.join(ROOT, "perfbench", "golden", "graph_tall.json")) as fh:
        golden = json.load(fh)["calls"]
    with open(os.path.join(ROOT, "perfbench", "golden", "jacobian.json")) as fh:
        jacobian_7 = json.load(fh)["calls"]["jacobian --p 7"]

    def run(argv):
        code = cli.main(argv)
        return [code, hashlib.sha256(capsys.readouterr().out.strip().encode()).hexdigest()]

    def non_square(key):
        den = Fraction(key[len("graph --c="):]).denominator
        return isqrt(den) ** 2 != den

    keys = [k for k in golden if k.startswith("family ")
            or k.startswith("graph --c=") and non_square(k)]
    assert len(keys) == 72 + 64
    for key in keys:
        argv = key.split()
        assert run(argv) == golden[key], key
        with pytest.raises(SystemExit) as exc:
            cli.main(["graph", "--c", "1/0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].startswith("preper graph: error:")
        assert run(["jacobian", "--p", "7"]) == jacobian_7
        assert run([*argv[:-1], *argv[-1].split("=", 1)]) == golden[key], key


def test_verify_curves_height_40_bytes_are_pinned():
    # sha256 of the curves report with timing_ms removed: every search row,
    # point list row and function-field identity row, with its value and note
    r = run_cli("verify", "curves", "--height", "40")
    assert r.returncode == 1
    assert digest(r.stdout) == \
        "081bc11fbaa11784d4033cd0218ad3e94bc7c070251184e4317e176b78a5ec4a"


def test_curves_report_builds_no_curve_model(monkeypatch):
    # every model it reports on, e24-corrected included, is built once at
    # import; a CurveModel construction is what takes a discriminant
    from preper import curves

    first = cli.curves_report(50)
    calls = []
    monkeypatch.setattr(curves, "discriminant", lambda f: calls.append(f) or 1)
    second = cli.curves_report(50)
    assert calls == []
    assert [c.as_dict() for c in second.checks] == [c.as_dict() for c in first.checks]
    assert [c.id for c in second.checks if c.id.startswith("e24-corrected")] == [
        "e24-corrected-on-curve", "e24-corrected-closure", "e24-corrected-search"]


def test_verify_all_height_57_bytes_are_pinned():
    # sha256 of the whole verify report with timing_ms removed, including the
    # descent norms, the padic rows and the jacobian orders, whose JSON bytes
    # would change if a value flipped between int and Fraction
    r = run_cli("verify", "all", "--height", "57")
    assert r.returncode == 1
    assert digest(r.stdout) == \
        "73cd7b4046b877690820f0d09d5aa55ef2dbf36558745008a94d1fab3b8ba2d7"


def test_verify_descent_suite():
    r = run_cli("verify", "descent")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    by_id = {c["id"]: c for c in d["checks"]}
    assert by_id["norm-beta2"]["status"] == "pass"
    assert by_id["norm-beta2"]["value"] == "552049"
    assert by_id["mw-conclusion"]["status"] == "external-dependency"


def test_verify_padic_suite():
    r = run_cli("verify", "padic")
    assert r.returncode == 0
    by_id = {c["id"]: c for c in json.loads(r.stdout)["checks"]}
    assert by_id["delta-congruence"]["status"] == "pass"
    assert by_id["delta-strassman"]["status"] == "pass"


def test_verify_jacobian_suite():
    r = run_cli("verify", "jacobian")
    assert r.returncode == 0
    by_id = {c["id"]: c for c in json.loads(r.stdout)["checks"]}
    assert by_id["jac-order-3"]["value"] == 27
    assert by_id["f3-9d-identity"]["status"] == "pass"


def test_verify_curves_reports_documented_discrepancies():
    # small height keeps this fast; the documented misprints still fail
    r = run_cli("verify", "curves", "--height", "40")
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert d["ok"] is False
    by_id = {c["id"]: c for c in d["checks"]}
    assert by_id["e24-on-curve"]["status"] == "fail"
    assert "discrepancy" in by_id["e24-on-curve"]["note"]
    assert by_id["e24-corrected-on-curve"]["status"] == "pass"
    assert by_id["q17_e17-printed-forward-on-target"]["status"] == "fail"
    assert by_id["q17_e17-forward-on-target"]["status"] == "pass"
    other_fails = [c for c in d["checks"] if c["status"] == "fail"
                   if not (c["id"].startswith("e24-") or "printed" in c["id"])]
    assert other_fails == []


def test_verify_theorems_suite():
    # the suite runs no point search, so a height above the search budget is unused
    r = run_cli("verify", "theorems", "--height", "99999999")
    assert r.returncode == 0
    by_id = {c["id"]: c for c in json.loads(r.stdout)["checks"]}
    assert by_id["catalog-realized"]["status"] == "pass"
    assert by_id["graph-2916-orbit"]["status"] == "pass"


@pytest.mark.parametrize("args, env", [
    (("scan", "--height", "0"), None),
    (("scan", "--height", "-3"), None),
    (("scan", "--height", "5", "--jobs", "0"), None),
    (("scan", "--height", "5", "--jobs", "-1"), None),
    # --jobs is gone, so the values it once accepted are usage errors too
    (("scan", "--height", "5", "--jobs", "1"), None),
    (("scan", "--height", "5", "--jobs", "64"), None),
    (("curve-points", "--curve", "c1_32", "--height", "0"), None),
    (("verify", "curves", "--height", "0"), None),
    (("jacobian", "--p", "4"), None),
    (("jacobian", "--p", "1"), None),
    (("jacobian", "--p", "2003"), None),
    (("graph", "--c", "10000000000000000000001/4"), None),
    (("graph", "--c", "10000000000000000000001/4", "--format", "dot"), None),
    (("curve-points", "--curve", "c1_32", "--height", "10001"), None),
    (("verify", "curves", "--height", "10001"), None),
    (("verify", "all", "--height", "10001"), None),
    (("scan", "--height", "1000000000"), None),
    (("curve-points", "--curve", "e11"), None),
    (("curve-points", "--curve", "q24"), None),
    (("curve-points", "--curve", "conic_p1p2"), None),
    *((("family", family, "--param", PARAM_601), None)
      for family in ("p1", "p2", "p3", "p1and2", "t12", "t22")),
    (("graph", "--c", "\u0661\u0662"), None),  # Arabic-Indic digits, not an ASCII literal
    # integer options take the integer part of the rational grammar only
    (("scan", "--height", "\u0662"), None),
    (("scan", "--height", "1_0"), None),
    (("jacobian", "--p", "\u0665"), None),
    (("jacobian", "--p", "1_3"), None),
    (("curve-points", "--curve", "c1_32", "--height", "\u0663"), None),
    (("verify", "theorems", "--height", "1_0"), None),
])
def test_usage_errors_exit_2_without_traceback(args, env):
    r = run_cli(*args, env=env)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error:" in r.stderr.strip().splitlines()[-1]
