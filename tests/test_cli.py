import hashlib
import json
import os
import subprocess
import sys

import pytest

import preper

# the package the tests import, so the child runs it without an install
SRC = os.path.dirname(os.path.dirname(preper.__file__))


def run_cli(*args, env=None):
    # the timeout turns a command that runs unbounded into a failure, not a hang
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "preper", *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": pythonpath, **(env or {})})


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


def test_scan_determinism_across_jobs():
    a = run_cli("scan", "--height", "12", "--jobs", "1")
    b = run_cli("scan", "--height", "12", "--jobs", "4")
    assert a.returncode == b.returncode == 0
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    assert da["census"] == db["census"]
    assert json.dumps(da["census"], sort_keys=True) == json.dumps(db["census"], sort_keys=True)
    assert da["out_of_catalog"] == [] and da["bound_violations"] == []


def test_scan_height_300_census_bytes_are_pinned():
    # sha256 of the census report with timing_ms removed; a change to any
    # count, sample or shape code at height <= 300 changes it
    r = run_cli("scan", "--height", "300")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    del payload["timing_ms"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b3a562a8eebcfc550c322ef3389797a5a85209375dca5cb9561fca28e1ed82a5"


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
    r = run_cli("verify", "theorems")
    assert r.returncode == 0
    by_id = {c["id"]: c for c in json.loads(r.stdout)["checks"]}
    assert by_id["catalog-realized"]["status"] == "pass"
    assert by_id["graph-2916-orbit"]["status"] == "pass"


@pytest.mark.parametrize("args, env", [
    (("scan", "--height", "0"), None),
    (("scan", "--height", "-3"), None),
    (("scan", "--height", "5", "--jobs", "0"), None),
    (("scan", "--height", "5", "--jobs", "-1"), None),
    (("scan", "--height", "5"), {"PREPER_JOBS": "x"}),
    (("scan", "--height", "5"), {"PREPER_JOBS": "0"}),
    (("curve-points", "--curve", "c1_32", "--height", "0"), None),
    (("verify", "curves", "--height", "0"), None),
    (("jacobian", "--p", "4"), None),
    (("jacobian", "--p", "1"), None),
    (("jacobian", "--p", "2003"), None),
    (("graph", "--c", "10000000000000000000001/4"), None),
    (("graph", "--c", "10000000000000000000001/4", "--format", "dot"), None),
])
def test_usage_errors_exit_2_without_traceback(args, env):
    r = run_cli(*args, env=env)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error:" in r.stderr.strip().splitlines()[-1]
