"""Accelerated first-order optimization of geodesically convex functions on
constant-curvature manifolds, via geodesic-map reduction to a constrained
Euclidean problem."""

from .manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    distance,
    exp_map,
    log_map,
    pole,
)
from .geomap import (
    DeformationConstants,
    MapFrame,
    deformation_constants,
    from_ball,
    make_frame,
    pullback_gradient,
    to_ball,
)
from .objectives import (
    DeltaConstants,
    FrechetObjective,
    ManifoldObjective,
    MappedObjective,
    delta_constants,
    load_anchors,
    regularized,
    save_anchors,
    validate_constants,
    with_constants,
)
from .axgd import (
    LineSearchError,
    SolverParams,
    SolverState,
    binary_line_search,
    iteration_budget,
    mirror_dual_grad,
    params_from_constants,
    run,
)
from .reductions import (
    RegularizationPlan,
    make_regularization_plan,
    solve_gconvex_via_sc,
    solve_strongly_gconvex,
)
from .baselines import RgdParams, reference_optimum, rgd_run
from .bench import ExperimentConfig, fit_rate_exponent, run_experiment, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]


def __getattr__(name):
    # PEP 562: ``curvopt.checks`` loads on first access, so ``import curvopt``
    # skips the check suite.  ``from . import checks`` here would recurse.
    if name == "checks":
        from importlib import import_module

        return import_module(".checks", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
