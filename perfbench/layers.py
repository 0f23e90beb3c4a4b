"""The package's layers as the traced run sees them: which functions are
wrapped, which counts are derived from their arguments and results, and
which functions each workload must reach."""

from __future__ import annotations

from math import isqrt

from spans import HARNESS, HOOKS
from workloads import searched_x


def _count_points_name(args, kwargs) -> str:
    k = kwargs.get("k", args[2] if len(args) > 2 else 1)
    return f"ffjac.count_points.k{k}"


def _box_candidates(c) -> int:
    """Size of preper_points' candidate box k/d, |k| <= kmax, before the
    gcd filter; 0 when the denominator of c is not a square."""
    d = isqrt(c.denominator)
    if d * d != c.denominator:
        return 0
    cn, cd = abs(c).numerator, abs(c).denominator
    kmax = (d * (cd + isqrt(cd * cd + 4 * cd * cn))) // (2 * cd) + 1
    return 2 * kmax + 1


def _preper_points_hook(tracer):
    def hook(args, kwargs, graph):
        tracer.count("dynamics.box_candidates.computed", _box_candidates(args[0].c))
        tracer.count("dynamics.vertices", len(graph.vertices))
    return hook


def _search_hook(tracer):
    def hook(args, kwargs, points):
        height = kwargs.get("height", args[1] if len(args) > 1 else None)
        tracer.count("curves.searched_x.computed", searched_x(height))
        tracer.count("curves.points", len(points))
    return hook


# (metric name, or a function of the call's arguments giving it; module;
#  attribute; hook factory)
TARGETS = [
    ("cli.main", "cli", "main", None),
    ("cli.build_suite_report", "cli", "build_suite_report", None),
    ("dynamics.scan", "dynamics", "scan", None),
    ("dynamics.c_values_up_to_height", "dynamics", "c_values_up_to_height", None),
    ("dynamics._scan_chunk", "dynamics", "_scan_chunk", None),
    ("dynamics.preper_points", "dynamics", "preper_points", _preper_points_hook),
    ("dynamics.orbit_classify", "dynamics", "orbit_classify", None),
    ("dynamics.graph_shape", "dynamics", "graph_shape", None),
    ("dynamics.PreperGraph.orbit_types", "dynamics", "PreperGraph.orbit_types", None),
    ("dynamics.admissible_shapes", "dynamics", "admissible_shapes", None),
    ("families.make_family_point", "families", "make_family_point", None),
    ("families.validate_family", "families", "validate_family", None),
    ("curves.rational_points_bounded", "curves", "rational_points_bounded", _search_hook),
    ("curves.elliptic_points_bounded", "curves", "elliptic_points_bounded", _search_hook),
    ("curves.verify_point_list", "curves", "verify_point_list", None),
    ("curves.verify_map_pair", "curves", "verify_map_pair", None),
    ("curves.x1_13_discriminant_check", "curves", "x1_13_discriminant_check", None),
    ("curves.good_reduction_model_check", "curves", "good_reduction_model_check", None),
    ("exactmath.is_perfect_square", "exactmath", "is_perfect_square", None),
    ("exactmath.RationalMap.eval", "exactmath", "RationalMap.eval", None),
    ("exactmath.BiPoly.eval", "exactmath", "BiPoly.eval", None),
    ("exactmath.FpPoly.eval_fq", "exactmath", "FpPoly.eval_fq", None),
    ("exactmath.FqElem.is_square", "exactmath", "FqElem.is_square", None),
    ("exactmath.fp_xgcd", "exactmath", "fp_xgcd", None),
    (_count_points_name, "ffjac", "count_points", None),
    ("ffjac.jacobian_order", "ffjac", "jacobian_order", None),
    ("ffjac.cantor_add", "ffjac", "cantor_add", None),
    ("ffjac.odd_model_transform", "ffjac", "odd_model_transform", None),
    ("ffjac.enumerate_jacobian", "ffjac", "enumerate_jacobian", None),
    ("descent.mordell_weil_report", "descent", "mordell_weil_report", None),
    ("padic.padic_report", "padic", "padic_report", None),
    ("padic.branch_series", "padic", "branch_series", None),
]

FUNCTIONS = [name if isinstance(name, str) else f"ffjac.count_points.k{k}"
             for name, *_ in TARGETS for k in ((None,) if isinstance(name, str) else (1, 2))]
MODULES = ["cli", "dynamics", "families", "curves", "exactmath", "ffjac", "descent", "padic"]

_DYNAMICS_GRAPH = ["dynamics.preper_points", "dynamics.orbit_classify",
                   "dynamics.graph_shape", "dynamics.admissible_shapes"]
# functions each workload must reach; a traced run that records zero calls
# for one of them is wrong, not slow
EXPECTED = {
    "census": ["cli.main", "dynamics.scan", "dynamics.c_values_up_to_height",
               "dynamics._scan_chunk", *_DYNAMICS_GRAPH],
    "graph_tall": ["cli.main", *_DYNAMICS_GRAPH, "dynamics.PreperGraph.orbit_types",
                   "families.make_family_point", "families.validate_family"],
    "curve_verify": ["cli.main", "cli.build_suite_report",
                     *[f for f in FUNCTIONS if f.startswith("curves.")],
                     "exactmath.is_perfect_square", "exactmath.RationalMap.eval",
                     "exactmath.BiPoly.eval"],
    "jacobian": ["cli.main", "cli.build_suite_report",
                 *[f for f in FUNCTIONS if f.startswith("ffjac.")],
                 "exactmath.FpPoly.eval_fq", "exactmath.FqElem.is_square", "exactmath.fp_xgcd",
                 "descent.mordell_weil_report", "padic.padic_report", "padic.branch_series",
                 "families.make_family_point", "families.validate_family",
                 "dynamics.preper_points"],
}


def targets(tracer):
    return [(name, module, attr, factory(tracer) if factory else None)
            for name, module, attr, factory in TARGETS]


def per_layer_metrics(tracer, overhead_ratio: float) -> dict:
    """Every per-layer metric: calls and self-time share per function, self
    share per module, the derived counts and yields, and the trace's own
    wall time and overhead."""
    wall = tracer.wall_s
    stats = tracer.stats
    metrics = {}
    for f in FUNCTIONS:
        calls, _total, self_s = stats.get(f, (0, 0.0, 0.0))
        metrics[f"{f}.calls"] = (calls, "count")
        metrics[f"{f}.self_pct"] = (100 * self_s / wall, "%")
    for m in MODULES:
        self_s = sum(row[2] for name, row in stats.items() if name.split(".")[0] == m)
        metrics[f"{m}.self_pct"] = (100 * self_s / wall, "%")
    bench = stats.get(HARNESS, (0, 0.0, 0.0))[2] + stats.get(HOOKS, (0, 0.0, 0.0))[2]
    metrics["bench.self_pct"] = (100 * bench / wall, "%")
    counters = tracer.counters
    box = counters.get("dynamics.box_candidates.computed", 0)
    searched = counters.get("curves.searched_x.computed", 0)
    metrics["dynamics.box_candidates.computed"] = (box, "count")
    metrics["dynamics.vertex_yield"] = (counters.get("dynamics.vertices", 0) / box if box else 0.0,
                                        "ratio")
    metrics["curves.searched_x.computed"] = (searched, "count")
    metrics["curves.search_yield"] = (counters.get("curves.points", 0) / searched if searched
                                      else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
