"""Accelerated first-order optimization of geodesically convex functions on
constant-curvature manifolds, via geodesic-map reduction to a constrained
Euclidean problem."""

from .manifolds import (
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    distance,
    pole,
)
from .geomap import (
    deformation_constants,
    from_ball,
    make_frame,
    pullback_gradient,
    to_ball,
)
from .objectives import (
    FrechetObjective,
    MappedObjective,
    delta_constants,
    load_anchors,
    save_anchors,
    validate_constants,
    with_constants,
)
from .axgd import params_from_constants
from .reductions import (
    solve_gconvex_via_sc,
    solve_strongly_gconvex,
)
from .baselines import RgdParams, rgd_run

__all__ = [name for name in dir() if not name.startswith("_")]


def __getattr__(name):
    # PEP 562: the harness, ``curvopt.bench`` and ``curvopt.checks``, loads on
    # first access, so ``import curvopt`` loads only the library and
    # ``python -m curvopt.bench`` finds no half-imported copy of its module.
    # ``from . import bench`` here would recurse.
    if name in ("bench", "checks"):
        from importlib import import_module

        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
