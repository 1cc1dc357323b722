"""Test instances and reference forms shared by the test modules.

Imported by name (``from instances import ...``), not through conftest, so
that a run of ``tests`` and ``perfbench/tests`` together resolves it.
"""

import math
import os
from pathlib import Path

import numpy as np

from curvopt import AmbientPoint, FrechetObjective, pole
from curvopt.geomap import MAX_HYPERBOLIC_R
from curvopt.manifolds import SPHERICAL, random_in_ball

# Edge values of a radius or a curvature: zeros, subnormals, extremes,
# non-finite values, and pi/2 and MAX_HYPERBOLIC_R with their float neighbours.
RADIUS_EDGES = [
    0.0, -0.0, 5e-324, 1e-310, 1e-308, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf,
    math.nextafter(math.pi / 2, 0.0), math.pi / 2, math.nextafter(math.pi / 2, 4.0),
    math.nextafter(MAX_HYPERBOLIC_R, 0.0), MAX_HYPERBOLIC_R, math.nextafter(MAX_HYPERBOLIC_R, 20.0),
]

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env():
    """Environment for a child ``python`` process: this checkout's ``src`` first on its PYTHONPATH.

    pytest's ``pythonpath`` setting reaches only the test process, so a
    child such as ``python -m curvopt`` needs it to import the package from
    a checkout that is not installed.
    """
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def frechet_instance(space, d, R, n_anchors, seed, anchor_radius=None, weights=None, padding=0.0):
    """Seeded Frechet instance centered at the pole, g-convex on the ball."""
    rng = np.random.default_rng(seed)
    center = pole(d, space)
    if anchor_radius is None:
        anchor_radius = 0.75 * R
        if space.sign > 0:
            anchor_radius = min(anchor_radius, 0.9 * (np.pi / 2 - R - padding))
    coords = random_in_ball(center.coords, space.sign, anchor_radius, rng, n_anchors)
    anchors = [AmbientPoint(c, space) for c in coords]
    if weights is None:
        weights = np.full(n_anchors, 1.0 / n_anchors)
    return center, FrechetObjective(anchors, weights, center, R, padding=padding)


def dense_frame(x0):
    """The frame isometry M at x0 and its inverse as dense (d+1)^2 matrices.

    Built from the rank-two form: with K the sign, G = diag(1, ..., 1, K),
    e the pole, c = x0[d], u = x0 + e and P = I - K u (G u)^T / (1 + c),
    M = P + 2K e (G x0)^T and M^{-1} = P + 2 x0 e^T.  On the sphere below
    the equator the half-turn H = diag(-1, 1, ..., 1, -1) goes first:
    M = M(H x0) H and M^{-1} = H M(H x0)^{-1}.
    """
    sign = x0.space.sign
    K = float(sign)
    n = x0.d + 1
    h = np.ones(n)
    if sign == SPHERICAL and x0.coords[-1] < 0.0:
        h[0] = h[-1] = -1.0
    x = h * x0.coords
    eye = np.eye(n)
    g = np.ones(n)
    g[-1] = K
    u = x + eye[-1]
    P = eye - np.outer(u, (K / (1.0 + x[-1])) * (g * u))
    M = P + np.outer((2.0 * K) * eye[-1], g * x)
    M_inv = P + np.outer(2.0 * x, eye[-1])
    return M * h, M_inv * h[:, None]
