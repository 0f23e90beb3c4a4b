"""preper: exact verification workbench for the arithmetic dynamics of
z**2 + c over Q.

Compute rational preperiodic-point graphs, generate and validate the
parametrized families of maps with prescribed orbit structure, search and
verify rational points on the classifying curves, and reproduce the local
and p-adic evidence behind the rank and point-count computations, all in
exact arithmetic.
"""

__version__ = "0.1.0"

from .dynamics import (
    PreperGraph,
    QuadMap,
    admissible_shapes,
    graph_shape,
    normalize_quadratic,
    orbit_classify,
    preper_points,
    scan,
)
from .families import FamilyPoint, make_family_point, validate_family

__all__ = [
    "FamilyPoint",
    "PreperGraph",
    "QuadMap",
    "admissible_shapes",
    "graph_shape",
    "make_family_point",
    "normalize_quadratic",
    "orbit_classify",
    "preper_points",
    "scan",
    "validate_family",
]
