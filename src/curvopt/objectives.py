"""Objective oracles on the manifold and their mapped Euclidean counterparts.

A ``ManifoldObjective`` exposes values and Riemannian gradients together
with declared smoothness / strong-convexity constants; the declared
constants are what the solvers consume, so any valid (possibly loose)
bounds are acceptable.  ``MappedObjective`` composes an objective with a
geodesic map frame to obtain the constrained Euclidean problem the
accelerated solver works on.

The built-in test family is the weighted Frechet mean objective
F(x) = sum_j w_j d(x, a_j)^2 / 2, whose constants follow from the
curvature distortion bounds on the squared-distance function.  It and its
regularized and re-declared copies are sums of weighted squared distances,
so ``MappedObjective`` evaluates them in closed form in ball coordinates;
any other objective is mapped through the chain ``from_ball``,
``value_c``/``grad_c``, ``pullback_gradient``.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from .geomap import _LIGHTLIKE, BALL_TOL, _ball_scale, _isometry, ball_radius, from_ball, pullback_gradient
from .manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    distance,
    inner,
    log_map,
    random_in_ball,
    rowsum,
)


class DeltaConstants(NamedTuple):
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
    (batched over leading axes); the object-level accessor wraps them.
    Oracles must be pure.
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

    def value(self, x: AmbientPoint) -> float:
        return float(self.value_c(x.coords))

    def _cosine_rows(self):
        """``(rows, weights)`` when F(x) = sum_j w_j d(x, a_j)^2 / 2, else None.

        ``rows`` are the cosine rows of ``_theta_k``.  MappedObjective
        evaluates such an objective in closed form; a subclass that changes
        the oracle of one that returns rows must return None.
        """
        return None


# 0-d array constants: numpy converts a Python-float ufunc argument on every
# call, a 0-d float64 array is used as it is.  The results are the same bits.
_ONE, _NEG_ONE, _TINY = np.array(1.0), np.array(-1.0), np.array(1e-300)


def _theta_k(c, sign, weights=None):
    """theta_j = d(x, a_j) and k_j = w_j theta_j / |u_j| from c_j = cos d(x, a_j).

    On the hyperboloid c_j is cosh d(x, a_j).  Callers compute c = x @ rows.T
    from the cosine rows of the points a_j, or of one: a_j on the sphere,
    a_j with its first d slots negated on the hyperboloid.  u_j = a_j - c_j x,
    the tangential component of a_j at x, has norm sqrt(|c_j^2 - 1|).
    Without ``weights`` every w_j is 1.
    """
    if sign < 0:
        theta = np.arccosh(np.maximum(c, _ONE))
        un = np.sqrt(np.maximum(c * c - _ONE, _TINY))
    else:
        theta = np.arccos(c.clip(_NEG_ONE, _ONE))
        un = np.sqrt(np.maximum(_ONE - c * c, _TINY))
    return theta, (theta if weights is None else weights * theta) / un


def _sqdist_value(theta, weights):
    wt = weights * (theta * theta)  # one point, the solvers' hot path, skips the call to rowsum
    return 0.5 * (np.add.reduce(wt) if wt.ndim == 1 else rowsum(wt))


class FrechetObjective(ManifoldObjective):
    """Weighted sum of halved squared distances to anchor points.

    ``center``/``radius`` describe the geodesic ball the objective will be
    evaluated on, and ``radius`` must pass ``geomap.ball_radius``; the
    declared constants are computed for the largest anchor distance
    reachable there (plus ``padding``, for callers that re-center the ball
    during a run).  On the sphere that reach must stay below pi/2, which is
    also exactly the g-convexity condition.

    The solvers call ``grad_c`` on one 1-D point at a time, so a point takes
    its own branch: 1-D ``.dot`` with the stored transposed rows
    ``_rows_T`` in place of ``@``, the same bits at half numpy's call cost.
    """

    def __init__(self, anchors, weights, center, radius, padding=0.0):
        anchors = list(anchors)
        if not anchors:
            raise GeometryError("need at least one anchor")
        self.space = anchors[0].space
        sign = self.space.sign
        self.anchor_coords = np.stack([a.coords for a in anchors])
        self.weights = np.asarray(weights, dtype=float)
        # Both tests are written so that NaN fails them.
        if self.weights.shape != (len(anchors),) or not np.all(self.weights > 0):
            raise GeometryError("weights must be positive, one per anchor")
        if not abs(float(np.sum(self.weights)) - 1.0) <= 1e-9:
            raise GeometryError("weights must sum to 1")
        self.anchors = anchors
        ball_radius(sign, radius)
        anchor_dists = distance(center.coords, self.anchor_coords, sign)
        if not np.all(anchor_dists <= radius + BALL_TOL):  # written so that NaN fails it
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
        self._rows_T = self._anchor_rows.T

    def _cosine_rows(self):
        return self._anchor_rows, self.weights

    def _cosines(self, x):
        """x as a C-contiguous float array, and c = x @ rows.T."""
        x = np.ascontiguousarray(x, dtype=float)
        return x, (x.dot(self._rows_T) if x.ndim == 1 else x @ self._rows_T)

    def value_c(self, x):
        c = self._cosines(x)[1]
        # + 0 c is NaN at an infinite c_j, which the clip of _theta_k reads as distance 0 or pi, and +-0 elsewhere.
        return _sqdist_value(_theta_k(c, self.space.sign)[0] + 0.0 * c, self.weights)

    def grad_c(self, x):
        x, c = self._cosines(x)
        k = _theta_k(c, self.space.sign, self.weights)[1]
        # grad = -sum_j k_j u_j = sum_j k_j (c_j x - a_j): the tangential
        # directions toward the anchors, scaled by distance over tangential norm.
        if x.ndim == 1:
            return np.add.reduce(k * c) * x - k.dot(self.anchor_coords)
        return rowsum(k * c, keepdims=True) * x - k @ self.anchor_coords


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

    def _cosine_rows(self):
        inner = self.inner_obj._cosine_rows()
        if inner is None:
            return None
        rows, weights = inner
        return np.vstack([rows, self._center_row]), np.append(weights, self.mu_i)

    def value_c(self, x):
        x = np.ascontiguousarray(x, dtype=float)
        theta = _theta_k(x @ self._center_row, self.space.sign)[0]
        return self.inner_obj.value_c(x) + 0.5 * self.mu_i * theta**2

    def grad_c(self, x):
        x = np.ascontiguousarray(x, dtype=float)
        c = x @ self._center_row
        k = _theta_k(c, self.space.sign)[1]
        reg_grad = -k[..., None] * (self.center.coords - c[..., None] * x)
        return self.inner_obj.grad_c(x) + self.mu_i * reg_grad


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
    rng = rng or np.random.default_rng(0)
    sign = obj.space.sign
    x = random_in_ball(center.coords, sign, R, rng, n)
    y = random_in_ball(center.coords, sign, R, rng, n)
    [(upper, lower)] = definition_slacks(obj, x, y, [(obj.smoothness, obj.strong_convexity)])
    return {"smoothness": upper, "strong_convexity": lower}


def definition_slacks(obj, x, y, pairs):
    """Worst slacks of the two definition inequalities over point pairs (x, y).

    Returns one ``(upper, lower)`` per ``(L, mu)`` in ``pairs``: the largest
    F(y) - F(x) - <grad F(x), Log_x y> - L d^2 / 2 and
    F(x) + <grad F(x), Log_x y> + mu d^2 / 2 - F(y), each relative to the
    value scale 1 + |F(x)| + |F(y)|; positive means violated.  F, its
    gradient, the log map and the distance are evaluated once for all pairs.
    """
    sign = obj.space.sign
    fx, fy = obj.value_c(x), obj.value_c(y)
    lin = inner(obj.grad_c(x), log_map(x, y, sign), sign)
    dd = distance(x, y, sign)
    scale = 1.0 + np.abs(fx) + np.abs(fy)
    return [
        (
            float(np.max((fy - fx - lin - 0.5 * L * dd**2) / scale)),
            float(np.max((fx + lin + 0.5 * mu * dd**2 - fy) / scale)),
        )
        for L, mu in pairs
    ]


class MappedObjective:
    """The constrained Euclidean problem f = F o h^{-1} on the frame's ball.

    An objective with cosine rows (``ManifoldObjective._cosine_rows``) is
    evaluated in closed form in ball coordinates.  Let M be the frame
    isometry and s = (1 + K |x~|^2)^(-1/2), so that h^{-1}(x~) = M^{-1} s (x~, 1).
    The rows, rotated into the frame once, [B | b] = rows M^{-1} =
    (G M G rows^T)^T (M is a G-isometry), give the cosines straight from x~:

        c_j = C_K(theta_j) = s (B_j . x~ + b_j),

    and f = sum_j w_j theta_j^2 / 2.  With C_K = cos (K = 1) or cosh
    (K = -1), d theta / dc = -K / sqrt|c^2 - 1|, so df/dc_j = -K k_j with
    k_j = w_j theta_j / sqrt|c_j^2 - 1| as in ``_theta_k``.  Since
    grad s = -K s^3 x~, grad c_j = s B_j - K s^2 c_j x~, and (K^2 = 1)

        grad f = s^2 (k . c) x~ - K s B^T k.

    No point or gradient is mapped between the ball and the manifold.  The
    solver calls the oracle on one 1-D point at a time, where numpy's
    per-call cost on a d-vector outweighs the arithmetic; there |x~|^2, s
    and k . c are Python floats, and only c, theta, k and the gradient are
    arrays.  A batch of points (leading axes) takes the same formulas with
    s of shape (..., 1).  Any other objective goes through the chain:
    ``from_ball``, then ``value_c``/``grad_c``, then ``pullback_gradient``.
    """

    def __init__(self, inner_obj, frame):
        self.inner_obj = inner_obj
        self.frame = frame
        self._BT = None
        terms = inner_obj._cosine_rows()
        if terms is not None:
            rows, self._weights = terms
            G = np.append(np.ones(rows.shape[-1] - 1), frame.sign)
            rows = G * _isometry(frame, G * rows)
            self._BT = rows[:, :-1].T.copy()
            self._b = rows[:, -1].copy()
            self._KB = frame.sign * rows[:, :-1]
            self._K = frame.sign
            self._r_max = frame.R_tilde + BALL_TOL

    def _terms(self, xt):
        """xt read as a C-contiguous float array, and s, c, theta and k at its ball point(s).

        One point, the hot path, keeps ``geomap._ball_s2``'s rules, NaN failing them, in
        Python floats: ``xt.dot(xt)`` rounds apart from ``(xt * xt).sum(-1)`` (~1 point
        in 6); solver traces pin it.
        """
        xt = np.ascontiguousarray(xt, dtype=float)
        K = self._K
        if xt.ndim == 1:
            r2 = float(xt.dot(xt))
            if not math.sqrt(r2) <= self._r_max:
                raise GeometryError("ball coordinates exceed the frame radius")
            s2 = 1.0 + K * r2
            if not s2 > 0.0:
                raise GeometryError(_LIGHTLIKE)
            s = 1.0 / math.sqrt(s2)
        else:
            s = _ball_scale(self.frame, xt)
        c = s * (xt.dot(self._BT) + self._b)
        theta, k = _theta_k(c, K, self._weights)
        return xt, s, c, theta, k

    def _grad(self, xt, s, c, k):
        kc = float(k.dot(c)) if xt.ndim == 1 else rowsum(k * c, keepdims=True)
        return (s * s * kc) * xt - s * k.dot(self._KB)

    def value(self, xt):
        """f at the ball point ``xt``, a float, or at each point of a batch (leading axes)."""
        if self._BT is None:
            value = self.inner_obj.value_c(from_ball(self.frame, xt))
        else:
            value = _sqdist_value(self._terms(xt)[3], self._weights)
        return float(value) if np.ndim(xt) == 1 else value

    def grad(self, xt):
        if self._BT is None:
            x = from_ball(self.frame, xt)
            return pullback_gradient(self.frame, x, self.inner_obj.grad_c(x), xt=xt)
        xt, s, c, _, k = self._terms(xt)
        return self._grad(xt, s, c, k)

    def value_and_grad(self, xt):
        """``(value(xt), grad(xt))`` from one evaluation of the kernel."""
        if self._BT is None:
            x = from_ball(self.frame, xt)
            value = float(self.inner_obj.value_c(x))
            return value, pullback_gradient(self.frame, x, self.inner_obj.grad_c(x), xt=xt)
        xt, s, c, theta, k = self._terms(xt)
        return float(_sqdist_value(theta, self._weights)), self._grad(xt, s, c, k)


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
                    header = lineno, line
                continue
            try:
                rows.append((lineno, [float(v) for v in line.split()]))
            except ValueError as err:
                raise GeometryError(f"{path}:{lineno}: {err}") from None
    if header is None:
        raise GeometryError(f"{path}: anchor file is missing its header line")
    where = f"{path}:{header[0]}: anchor file header"
    fields = dict(part.split("=", 1) for part in header[1].lstrip("#").split() if "=" in part)
    name = fields.get("class")
    try:
        d = int(fields.get("d", "0"))
    except ValueError as err:
        raise GeometryError(f"{where}: d: {err}") from None
    if name not in _CLASS_SIGNS:
        raise GeometryError(f"{where}: unknown manifold class {name!r}")
    file_space = CurvatureClass(_CLASS_SIGNS[name])
    if space is not None and space.sign != file_space.sign:
        raise GeometryError(f"{where}: class {name!r} does not match the requested space")
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
