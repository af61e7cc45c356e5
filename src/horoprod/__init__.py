"""Exact geometry of horospheric products of pointed trees.

Pointed locally finite leafless trees with canonical vertex addresses,
their ends and horocycle levels, the horospheric product graph with its
closed-form metric, the five boundary-function families of its height
compactification, exact limit classification of structured vertex
sequences, and a reproducible biased-random-walk drift simulator.
"""

import importlib

from .tree import (
    AddressError,
    CustomRule,
    ExplicitCore,
    Line,
    ORIGIN,
    RayPeriodic,
    Regular,
    SpecError,
    TreeSpec,
    UndecidableFamilyError,
    VertexAddress,
    Violation,
    busemann,
    gamma_ward,
    height,
    meet_depth,
    origin_dist,
    tree_dist,
    vertex_busemann,
)
from .rays import (
    BranchingRay,
    FSet,
    GAMMA,
    GammaEnd,
    Ray,
    f_set,
    level_busemann,
    level_count,
    level_sequence,
    parse_ray,
)
from .product import (
    BASE,
    HeightMismatch,
    HoroProduct,
    ProductVertex,
    product_busemann,
    product_dist,
    product_height,
)
from .boundary import (
    BoundaryPoint,
    boundary_limit_check,
    evaluate,
    hm_coordinates,
    level_point,
    parse_point,
    ray_point,
    standard_catalog,
    vertex_point,
)
from .limits import (
    Alternating,
    Custom,
    EmpiricalReport,
    EventuallyConstant,
    FamilyExhausted,
    FixedFirst,
    FixedSecond,
    Horocyclic,
    IsomorphismSummary,
    LimitReport,
    RadialRay,
    classify,
    empirical_pointwise_check,
    family_from_json,
    isomorphism_check,
    random_families,
    realizability,
    stabilization_bound,
    terms,
)
# The walk and the verification suites compute in numpy, whose import
# costs about half the start-up of a command that uses neither, so their
# names load on first use (PEP 562).
_WALK_NAMES = frozenset({
    "SpeedEstimate",
    "TrajectoryStats",
    "WalkConfig",
    "WalkResult",
    "drift_report",
    "estimate_speed",
    "simulate",
    "step",
    "write_trace_csv",
})


def __getattr__(name: str):
    if name in ("walk", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name in _WALK_NAMES:
        return getattr(importlib.import_module(".walk", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
