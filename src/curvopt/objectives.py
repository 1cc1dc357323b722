"""Objective oracles on the manifold and their mapped Euclidean counterparts.

A ``ManifoldObjective`` exposes values and Riemannian gradients together
with declared smoothness / strong-convexity constants; the declared
constants are what the solvers consume, so any valid (possibly loose)
bounds are acceptable.  ``MappedObjective`` composes an objective with a
geodesic map frame to obtain the constrained Euclidean problem the
accelerated solver works on.

The built-in test family is the weighted Frechet mean objective
F(x) = sum_j w_j d(x, a_j)^2 / 2, whose constants follow from the
curvature distortion bounds on the squared-distance function.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .geomap import from_ball, pullback_gradient
from .manifolds import HYPERBOLIC, SPHERICAL, AmbientPoint, CurvatureClass, GeometryError, distance, inner


@dataclass(frozen=True)
class DeltaConstants:
    """Distortion constants of x -> d(x, center)^2 / 2 on a diameter-D region.

    The function is delta_p-strongly g-convex and delta_n-smooth, where
    delta_p = sqrt(K_max) D cot(sqrt(K_max) D) for positive upper curvature
    (1 otherwise) and delta_n = sqrt(-K_min) D coth(sqrt(-K_min) D) for
    negative lower curvature (1 otherwise).
    """

    delta_p: float
    delta_n: float
    D: float


def delta_constants(K_min, K_max, D):
    if K_min > K_max:
        raise GeometryError("need K_min <= K_max")
    if D <= 0:
        raise GeometryError("diameter must be positive")
    if K_max > 0:
        s = math.sqrt(K_max) * D
        if s >= math.pi / 2:
            raise GeometryError("sqrt(K_max) D must stay below pi/2")
        delta_p = s / math.tan(s)
    else:
        delta_p = 1.0
    if K_min < 0:
        s = math.sqrt(-K_min) * D
        delta_n = s / math.tanh(s)
    else:
        delta_n = 1.0
    return DeltaConstants(delta_p, delta_n, D)


class ManifoldObjective(ABC):
    """Oracle contract: values, Riemannian gradients, declared constants.

    Subclasses implement the coordinate kernels ``value_c`` / ``grad_c``
    (batched over leading axes) and may override ``value_and_grad_c``, which
    the solvers call at points that need both, to share work between them;
    the object-level accessors wrap the kernels.  Oracles must be pure.
    """

    space = None
    smoothness = None
    strong_convexity = 0.0
    known_minimizer = None

    @abstractmethod
    def value_c(self, x):
        """Objective value(s) at ambient coordinates of shape (..., d+1)."""

    @abstractmethod
    def grad_c(self, x):
        """Riemannian gradient(s) as ambient coordinates, same shape as x."""

    def value_and_grad_c(self, x):
        """``(value_c(x), grad_c(x))``; override to share work between the two."""
        return self.value_c(x), self.grad_c(x)

    def value(self, x: AmbientPoint) -> float:
        return float(self.value_c(x.coords))


def _sqdist_terms(x, rows, sign, weights=1.0):
    """c_j = cos d(x, a_j) (cosh on the hyperboloid), theta_j and w_j theta_j / |u_j|.

    ``rows`` holds the cosine rows of the points a_j, or of one: a_j on the
    sphere, a_j with its first d slots negated on the hyperboloid, so that
    c = x @ rows.T.  u_j = a_j - c_j x, the tangential component of a_j at
    x, has norm sqrt(|c_j^2 - 1|).
    """
    c = x @ rows.T
    if sign < 0:
        theta = np.arccosh(np.maximum(c, 1.0))
        un = np.sqrt(np.maximum(c * c - 1.0, 1e-300))
    else:
        theta = np.arccos(c.clip(-1.0, 1.0))
        un = np.sqrt(np.maximum(1.0 - c * c, 1e-300))
    return c, theta, weights * theta / un


class FrechetObjective(ManifoldObjective):
    """Weighted sum of halved squared distances to anchor points.

    ``center``/``radius`` describe the geodesic ball the objective will be
    evaluated on; the declared constants are computed for the largest
    anchor distance reachable there (plus ``padding``, for callers that
    re-center the ball during a run).  On the sphere that reach must stay
    below pi/2, which is also exactly the g-convexity condition.
    """

    def __init__(self, anchors, weights, center, radius, padding=0.0):
        anchors = list(anchors)
        if not anchors:
            raise GeometryError("need at least one anchor")
        self.space = anchors[0].space
        sign = self.space.sign
        self.anchor_coords = np.stack([a.coords for a in anchors])
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(anchors),) or np.any(self.weights <= 0):
            raise GeometryError("weights must be positive, one per anchor")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-9:
            raise GeometryError("weights must sum to 1")
        self.anchors = anchors
        anchor_dists = distance(center.coords, self.anchor_coords, sign)
        if np.any(anchor_dists > radius + 1e-9):
            raise GeometryError("all anchors must lie inside the ball")
        reach = float(np.max(anchor_dists)) + radius + padding
        sign_k = float(sign)
        self.delta = delta_constants(sign_k, sign_k, reach)
        w_sum = float(np.sum(self.weights))
        self.smoothness = self.delta.delta_n * w_sum
        self.strong_convexity = self.delta.delta_p * w_sum
        self.known_minimizer = anchors[0] if len(anchors) == 1 else None
        self._anchor_rows = self.anchor_coords.copy()
        self._anchor_rows[:, :-1] *= sign

    def _value(self, theta):
        return 0.5 * (self.weights * theta**2).sum(-1)

    def _grad(self, x, c, k):
        # grad = -sum_j k_j u_j = sum_j k_j (c_j x - a_j): the tangential
        # directions toward the anchors, scaled by distance over tangential norm.
        return (k * c).sum(-1, keepdims=True) * x - k @ self.anchor_coords

    def value_c(self, x):
        return self._value(_sqdist_terms(x, self._anchor_rows, self.space.sign, self.weights)[1])

    def grad_c(self, x):
        x = np.asarray(x, dtype=float)
        c, _, k = _sqdist_terms(x, self._anchor_rows, self.space.sign, self.weights)
        return self._grad(x, c, k)

    def value_and_grad_c(self, x):
        x = np.asarray(x, dtype=float)
        c, theta, k = _sqdist_terms(x, self._anchor_rows, self.space.sign, self.weights)
        return self._value(theta), self._grad(x, c, k)


class RegularizedObjective(ManifoldObjective):
    """F(x) + (mu_i / 2) d(x, center)^2 with distortion-adjusted constants."""

    def __init__(self, inner_obj, mu_i, center, delta):
        if mu_i < 0:
            raise GeometryError("regularization weight must be nonnegative")
        self.inner_obj = inner_obj
        self.mu_i = float(mu_i)
        self.center = center
        self.space = inner_obj.space
        self.smoothness = inner_obj.smoothness + mu_i * delta.delta_n
        self.strong_convexity = inner_obj.strong_convexity + mu_i * delta.delta_p
        self.known_minimizer = None
        self._center_row = center.coords.copy()
        self._center_row[:-1] *= self.space.sign

    def _reg_grad(self, x, c, k):
        return -k[..., None] * (self.center.coords - c[..., None] * x)

    def value_c(self, x):
        theta = _sqdist_terms(x, self._center_row, self.space.sign)[1]
        return self.inner_obj.value_c(x) + 0.5 * self.mu_i * theta**2

    def grad_c(self, x):
        x = np.asarray(x, dtype=float)
        c, _, k = _sqdist_terms(x, self._center_row, self.space.sign)
        return self.inner_obj.grad_c(x) + self.mu_i * self._reg_grad(x, c, k)

    def value_and_grad_c(self, x):
        x = np.asarray(x, dtype=float)
        c, theta, k = _sqdist_terms(x, self._center_row, self.space.sign)
        value, grad = self.inner_obj.value_and_grad_c(x)
        return value + 0.5 * self.mu_i * theta**2, grad + self.mu_i * self._reg_grad(x, c, k)


def regularized(obj, mu_i, center, delta):
    """Add the proximal-style term (mu_i / 2) d(x, center)^2 to an objective."""
    if mu_i == 0:
        return obj
    return RegularizedObjective(obj, mu_i, center, delta)


def with_constants(obj, smoothness=None, strong_convexity=None):
    """A shallow copy of ``obj`` that declares looser constants.

    Smoothness may only go up and strong convexity only down, so the
    declared constants stay valid bounds for the shared oracle.  The copy's
    ``oracle_equivalent`` is the original objective, whose tighter
    constants ``reference_optimum`` uses.
    """
    L = obj.smoothness if smoothness is None else float(smoothness)
    mu = obj.strong_convexity if strong_convexity is None else float(strong_convexity)
    if L < obj.smoothness:
        raise GeometryError("declared smoothness may only be loosened upward")
    if mu > obj.strong_convexity:
        raise GeometryError("declared strong convexity may only be loosened downward")
    if L < mu:
        raise GeometryError("need L >= mu")
    out = copy.copy(obj)
    out.oracle_equivalent = getattr(obj, "oracle_equivalent", obj)
    out.smoothness = L
    out.strong_convexity = mu
    return out


def validate_constants(obj, center, R, n=2000, rng=None):
    """Sampled check that an oracle honors its declared constants.

    Draws n point pairs in the radius-R ball around ``center`` and returns
    the worst violations (positive = violated) of the smoothness upper
    bound and the strong-convexity lower bound, relative to the value
    scale.  Useful for user-supplied oracles, whose declared constants are
    otherwise trusted.
    """
    from .manifolds import log_map, random_in_ball

    rng = rng or np.random.default_rng(0)
    sign = obj.space.sign
    x = random_in_ball(center.coords, sign, R, rng, n)
    y = random_in_ball(center.coords, sign, R, rng, n)
    fx, fy = obj.value_c(x), obj.value_c(y)
    lin = inner(obj.grad_c(x), log_map(x, y, sign), sign)
    dd = distance(x, y, sign)
    scale = 1.0 + np.abs(fx) + np.abs(fy)
    upper = float(np.max((fy - fx - lin - 0.5 * obj.smoothness * dd**2) / scale))
    lower = float(
        np.max((fx + lin + 0.5 * obj.strong_convexity * dd**2 - fy) / scale)
    )
    return {"smoothness": upper, "strong_convexity": lower}


class MappedObjective:
    """The constrained Euclidean problem f = F o h^{-1} on the frame's ball."""

    def __init__(self, inner_obj, frame):
        self.inner_obj = inner_obj
        self.frame = frame

    def value(self, xt):
        return float(self.inner_obj.value_c(from_ball(self.frame, xt)))

    def value_many(self, xt):
        return self.inner_obj.value_c(from_ball(self.frame, xt))

    def grad(self, xt):
        x = from_ball(self.frame, xt)
        g = self.inner_obj.grad_c(x)
        return pullback_gradient(self.frame, x, g, xt=xt)

    def value_and_grad(self, xt):
        """``(value(xt), grad(xt))`` from one map to the manifold."""
        x = from_ball(self.frame, xt)
        value, g = self.inner_obj.value_and_grad_c(x)
        return float(value), pullback_gradient(self.frame, x, g, xt=xt)


# Anchor-set files: one anchor per line, d+1 whitespace-separated ambient
# coordinates, with a header line `# class=<spherical|hyperbolic> d=<int>`.
# Rows must lie on the unit model as written: |<p,p> - sign| <= ANCHOR_TOL |p|^2
# in the ambient metric, |p|^2 being the rounding scale of <p,p>.
ANCHOR_TOL = 1e-9
_CLASS_SIGNS = {"spherical": SPHERICAL, "hyperbolic": HYPERBOLIC}


def save_anchors(path, space, anchors):
    name = "spherical" if space.sign > 0 else "hyperbolic"
    d = anchors[0].d if isinstance(anchors[0], AmbientPoint) else len(anchors[0]) - 1
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# class={name} d={d}\n")
        for a in anchors:
            c = a.coords if isinstance(a, AmbientPoint) else np.asarray(a)
            fh.write(" ".join(f"{v:.17g}" for v in c) + "\n")


def load_anchors(path, space=None):
    """Read an anchor file; returns (CurvatureClass, list[AmbientPoint])."""
    header = None
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header is None:
                    header = line
                continue
            try:
                rows.append((lineno, [float(v) for v in line.split()]))
            except ValueError as err:
                raise GeometryError(f"{path}:{lineno}: {err}") from None
    if header is None:
        raise GeometryError("anchor file is missing its header line")
    fields = dict(
        part.split("=") for part in header.lstrip("#").split() if "=" in part
    )
    name = fields.get("class")
    d = int(fields.get("d", "0"))
    if name not in _CLASS_SIGNS:
        raise GeometryError(f"unknown manifold class {name!r} in anchor file")
    file_space = CurvatureClass(_CLASS_SIGNS[name])
    if space is not None and space.sign != file_space.sign:
        raise GeometryError("anchor file class does not match the requested space")
    space = space or file_space
    if not rows:
        raise GeometryError(f"{path}: anchor file holds no anchors")
    anchors = []
    for lineno, row in rows:
        if len(row) != d + 1:
            raise GeometryError(f"{path}:{lineno}: anchor row length does not match d={d}")
        p = np.asarray(row)
        residual = abs(float(inner(p, p, space.sign)) - space.sign)
        if not residual <= ANCHOR_TOL * float(p @ p):
            raise GeometryError(
                f"{path}:{lineno}: anchor is off the unit {name} model "
                f"(|<p,p> - {space.sign}| = {residual:.3g})"
            )
        anchors.append(AmbientPoint(p, space))
    return space, anchors
