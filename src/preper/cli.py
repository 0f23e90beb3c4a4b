"""Command-line front end.

Subcommands: graph, scan, family, curve-points, jacobian, verify.  All
numeric output is exact 'p/q' text, reports are JSON with sorted keys, and
exit codes follow a fixed contract: 0 success, 1 at least one check
failed, 2 usage error.  PREPER_JOBS sets the default worker count for
scan.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .dynamics import (
    BoxBudgetError,
    QuadMap,
    admissible_shapes,
    graph_shape,
    preper_points,
    scan,
)
from .exactmath import format_rational, is_prime, parse_rational
from .families import (
    FAMILY_IDS,
    ExcludedParameterError,
    make_family_point,
    validate_family,
)
from .report import PASS, SCHEMA_VERSION, Report, jsonable
from .curves import (
    CORRECTED_POINTS,
    CURVES,
    PRINTED_POINTS,
    HyperellipticSextic,
    good_reduction_model_check,
    rational_points_bounded,
    verify_all_birational_pairs,
    verify_point_list,
    x1_13_discriminant_check,
)
from .descent import mordell_weil_report
from .ffjac import COUNT_BUDGET, jacobian_order, jacobian_report
from .padic import padic_report

SUITES = ("all", "theorems", "curves", "descent", "jacobian", "padic")

EXPECTED_SEARCH = {"c1_32": 8, "x1_18": 6, "x1_13": 6}


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _emit(payload: dict) -> None:
    print(json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":")))


def _report_payload(command: str, rep: Report, t0: float, **extra) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "checks": [c.as_dict() for c in rep.checks], "ok": rep.ok,
            "timing_ms": int((time.perf_counter() - t0) * 1000), **extra}


def _graph_payload(c: Fraction) -> dict:
    g = preper_points(QuadMap(c))
    types = g.orbit_types()
    shape = graph_shape(g)
    vertices = sorted(g.vertices)
    return {
        "c": format_rational(c),
        "vertices": [format_rational(v) for v in vertices],
        "edges": {format_rational(v): format_rational(g.edges[v]) for v in vertices},
        "orbit_types": {format_rational(v): str(types[v]) for v in vertices},
        "includes_infinity": g.includes_infinity,
        "size_with_infinity": g.size_with_infinity(),
        "shape": shape.code,
        "in_catalog": shape in admissible_shapes(),
    }


def _graph_dot(c: Fraction) -> str:
    g = preper_points(QuadMap(c))
    types = g.orbit_types()
    lines = ["digraph preper {", f'  label="c = {format_rational(c)}";']
    for v in sorted(g.vertices):
        shape = "doublecircle" if types[v].kind == "periodic" else "circle"
        lines.append(f'  "{format_rational(v)}" [shape={shape}];')
    for v in sorted(g.vertices):
        lines.append(f'  "{format_rational(v)}" -> "{format_rational(g.edges[v])}";')
    lines.append("}")
    return "\n".join(lines)


def cmd_graph(args) -> int:
    try:
        if args.format == "dot":
            print(_graph_dot(args.c))
        else:
            _emit({"schema_version": SCHEMA_VERSION, "command": "graph",
                   **_graph_payload(args.c)})
    except BoxBudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def cmd_scan(args) -> int:
    t0 = time.perf_counter()
    result = scan(args.height, jobs=args.jobs)
    census = {
        (shape.code or "(empty)"): {
            "count": count,
            "samples": [format_rational(c) for c in samples],
        }
        for shape, (count, samples) in result.census.items()
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "scan",
        "height": args.height,
        "census": census,
        "out_of_catalog": [{"c": format_rational(c), "shape": s.code}
                           for c, s in result.out_of_catalog],
        "bound_violations": [{"c": format_rational(c), "size": n}
                             for c, n in result.bound_violations],
        "timing_ms": int((time.perf_counter() - t0) * 1000),
    }
    _emit(payload)
    # an out-of-catalog shape or a 10-point graph would be a discovery, not an error
    return 0


def _family_payload(fp) -> dict:
    validation = validate_family(fp)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "family",
        "family": fp.family,
        "parameter": None if fp.parameter is None else format_rational(fp.parameter),
        "c": format_rational(fp.c),
        "points": [{"x": format_rational(x), "type": str(t)} for x, t in fp.points],
        "aux": {k: format_rational(v) for k, v in sorted(fp.aux.items())},
        "validation": [{"claim": c.id, "ok": c.status == PASS, "detail": c.value}
                       for c in validation.checks],
        "warnings": [c.note for c in validation.checks if c.note],
        "ok": validation.ok,
    }


def cmd_family(args) -> int:
    try:
        fp = make_family_point(args.family, args.param)
    except ExcludedParameterError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = _family_payload(fp)
    _emit(payload)
    return 0 if payload["ok"] else 1


def cmd_curve_points(args) -> int:
    curve = CURVES.get(args.curve)
    if curve is None:
        print(f"error: unknown curve id {args.curve!r}; known: {sorted(CURVES)}",
              file=sys.stderr)
        return 2
    if not isinstance(curve, HyperellipticSextic):
        print("error: bounded search is provided for the sextic models only",
              file=sys.stderr)
        return 2
    pts = rational_points_bounded(curve, args.height)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "curve-points",
        "curve": args.curve,
        "height": args.height,
        "count": len(pts),
        "points": sorted(str(p) for p in pts),
    }
    _emit(payload)
    return 0


def cmd_jacobian(args) -> int:
    if not is_prime(args.p) or args.p ** 2 > COUNT_BUDGET:
        print(f"error: --p must be a prime with p^2 <= {COUNT_BUDGET}", file=sys.stderr)
        return 2
    try:
        order = jacobian_order(CURVES["c1_32"], args.p)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _emit({"schema_version": SCHEMA_VERSION, "command": "jacobian",
           "curve": "c1_32", "p": args.p, "order": order})
    return 0


def theorems_report() -> Report:
    """Family generators, their validations, and the graph anchors."""
    rep = Report("family and graph checks")
    anchors = [("p1", Fraction(3, 2)), ("p2", Fraction(1, 2)), ("p3", Fraction(1)),
               ("p3", Fraction(2)), ("p1and2", Fraction(2)), ("p1and2", Fraction(3)),
               ("t12", Fraction(0)), ("t12", Fraction(2)), ("t22", Fraction(2)),
               ("t22", Fraction(3)), ("t32", None)]
    for family, param in anchors:
        fp = make_family_point(family, param)
        v = validate_family(fp)
        tag = f"{family}" + (f"@{format_rational(param)}" if param is not None else "")
        rep.add(f"family-{tag}", f"family point {tag} validates (c = {format_rational(fp.c)})",
                v.ok, value=format_rational(fp.c))
    fp = make_family_point("p3", Fraction(1))
    rep.add("p3-at-1", "the 3-cycle family at parameter 1 lands on c = -29/16",
            fp.c == Fraction(-29, 16), value=format_rational(fp.c))

    f = QuadMap(Fraction(-29, 16))
    g = preper_points(f)
    rep.add("graph-2916-size", "c = -29/16 has 8 finite preperiodic points (9 with infinity)",
            len(g.vertices) == 8 and g.size_with_infinity() == 9, value=len(g.vertices))
    orbit = [Fraction(3, 4)]
    for _ in range(4):
        orbit.append(f(orbit[-1]))
    expected = [Fraction(3, 4), Fraction(-5, 4), Fraction(-1, 4), Fraction(-7, 4), Fraction(5, 4)]
    rep.add("graph-2916-orbit", "the orbit of 3/4 starts 3/4, -5/4, -1/4, -7/4, 5/4",
            orbit == expected, value=[format_rational(x) for x in orbit])
    cat = admissible_shapes()
    rep.add("graph-2916-catalog", "its graph shape belongs to the derived catalog",
            graph_shape(g) in cat)

    realized = {
        graph_shape(preper_points(QuadMap(c)))
        for c in (Fraction(1), Fraction(1, 4), Fraction(0), Fraction(-3, 4), Fraction(-2),
                  Fraction(-10, 9), Fraction(-1), Fraction(-7, 4), Fraction(-37, 9),
                  Fraction(-21, 16), Fraction(-301, 144), Fraction(-29, 16))
    }
    rep.add("catalog-realized", "twelve explicit c values realize the full derived catalog",
            realized == cat, value=len(realized))
    return rep


def curves_report(height: int) -> Report:
    rep = Report("curve checks")
    for label, expected in EXPECTED_SEARCH.items():
        pts = rational_points_bounded(CURVES[label], height)
        rep.add(f"search-{label}", f"bounded search on {label} finds exactly {expected} points",
                len(pts) == expected,
                value=sorted(str(p) for p in pts))
    for label in sorted(PRINTED_POINTS):
        sub = verify_point_list(CURVES[label], PRINTED_POINTS[label], height)
        if label == "e24":
            for c in sub.checks:
                c.note = (c.note + "; " if c.note else "") + \
                    "documented discrepancy: printed list contains the off-curve point (-1,1)"
        rep.extend(sub)
    corrected = verify_point_list(CURVES["e24"], CORRECTED_POINTS["e24"], height)
    for c in corrected.checks:
        c.id = c.id.replace("e24", "e24-corrected")
    rep.extend(corrected)
    rep.extend(verify_all_birational_pairs())
    rep.extend(x1_13_discriminant_check())
    rep.extend(good_reduction_model_check())
    return rep


def build_suite_report(suite: str, height: int = 1000) -> Report:
    rep = Report(f"verification suite {suite}")
    if suite in ("all", "theorems"):
        rep.extend(theorems_report())
    if suite in ("all", "curves"):
        rep.extend(curves_report(height))
    if suite in ("all", "descent"):
        rep.extend(mordell_weil_report())
    if suite in ("all", "jacobian"):
        rep.extend(jacobian_report())
    if suite in ("all", "padic"):
        rep.extend(padic_report())
    return rep


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    rep = build_suite_report(args.suite, height=args.height)
    payload = _report_payload(f"verify {args.suite}", rep, t0, suite=args.suite)
    _emit(payload)
    for c in rep.checks:
        mark = {"pass": "ok", "fail": "FAIL", "indeterminate": "? ",
                "external-dependency": "ext"}[c.status]
        print(f"[{mark:>4}] {c.id}: {c.statement}", file=sys.stderr)
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preper",
        description="exact computations around rational preperiodic points of z^2 + c",
    )
    parser.add_argument("--version", action="version", version=f"preper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # let bare negative rationals like -29/16 through as option values
    rational_token = re.compile(r"^-\d+(/\d+)?$")

    p = sub.add_parser("graph", help="compute the preperiodic-point graph of z^2 + c")
    p._negative_number_matcher = rational_token
    p.add_argument("--c", type=_rational, required=True,
                   help="exact rational, e.g. -29/16 (height of c is max(|u|, v^2) "
                        "for c = u/v^2 in lowest terms)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("scan", help="census of graph shapes for all c up to a height")
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int,
                   default=os.environ.get("PREPER_JOBS", "1"))
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("family", help="generate and validate a parametrized family point")
    p._negative_number_matcher = rational_token
    p.add_argument("family", choices=FAMILY_IDS)
    p.add_argument("--param", type=_rational, default=None)
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("curve-points", help="bounded rational point search on a model")
    p.add_argument("--curve", required=True)
    p.add_argument("--height", type=_positive_int, default=1000)
    p.set_defaults(fn=cmd_curve_points)

    p = sub.add_parser("jacobian", help="Jacobian order of c1_32 over F_p")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES, nargs="?", default="all")
    p.add_argument("--height", type=_positive_int, default=1000,
                   help="height bound for the curve searches")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
