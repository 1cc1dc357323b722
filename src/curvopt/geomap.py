"""Recenterable geodesic map between the model manifold and a Euclidean ball.

The map is the gnomonic projection for the sphere and the Beltrami-Klein
projection for the hyperboloid: after an isometry sending the basepoint x0
to the canonical pole, a point with frame coordinates p maps to

    x~ = (p_1, ..., p_d) / p_{d+1},

which sends geodesics to straight lines.  Its image of the radius-R ball is
the Euclidean ball of radius R~ = tan(R) (sphere, R < pi/2) or tanh(R)
(hyperboloid).  Distances, angles and gradients deform under the map; the
kernels below give the exact deformation formulas and the worst-case
constants over the ball that the solver consumes.

Conventions: with r = |x~| and curvature sign K, the differential of the
map at x has radial eigenvalue (1 + K r^2) and tangential eigenvalue
sqrt(1 + K r^2) with respect to metric-orthonormal directions.  Gradients
pull back by the chain rule through the closed-form inverse
from_ball(x~) = M^{-1} (x~, 1) / sqrt(1 + K r^2), with no log map and no
special case at the basepoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    distance,
    inner,
    norm,
)

BALL_TOL = 1e-9


def _metric(n, sign):
    g = np.eye(n)
    if sign == HYPERBOLIC:
        g[-1, -1] = -1.0
    return g


def _orthonormal_frame(x0, sign):
    """Orthogonal/Lorentz matrix sending x0 to the pole (0, ..., 0, 1).

    Gram-Schmidt against the ambient metric, seeded with the identity
    columns in order for reproducibility; x0 takes the pole slot.
    """
    n = x0.shape[0]
    basis = [x0]
    signs = [sign * 1.0 if sign == SPHERICAL else -1.0]
    for k in range(n):
        if len(basis) == n:
            break
        e = np.zeros(n)
        e[k] = 1.0
        v = e
        for b, s in zip(basis, signs):
            v = v - (inner(v, b, sign) / s) * b
        sq = inner(v, v, sign)
        if sq < 1e-10:
            continue
        basis.append(v / math.sqrt(sq))
        signs.append(1.0)
    if len(basis) < n:  # pragma: no cover - cannot happen for valid x0
        raise GeometryError("frame construction failed")
    cols = basis[1:] + [basis[0]]
    B = np.stack(cols, axis=1)
    G = _metric(n, sign)
    return G @ B.T @ G


@dataclass(frozen=True)
class MapFrame:
    """Geodesic map centered at x0 covering the radius-R ball."""

    space: CurvatureClass
    x0: AmbientPoint
    mat: np.ndarray
    R: float
    R_tilde: float

    @property
    def sign(self):
        return self.space.sign

    @property
    def d(self):
        return self.mat.shape[0] - 1

    @cached_property
    def inv_mat(self):
        G = _metric(self.mat.shape[0], self.sign)
        out = G @ self.mat.T @ G
        out.flags.writeable = False
        return out


def make_frame(x0, R):
    """Build the map frame at basepoint x0 for ball radius R."""
    sign = x0.space.sign
    if R <= 0:
        raise GeometryError("ball radius must be positive")
    if sign == SPHERICAL:
        if R >= math.pi / 2:
            raise GeometryError("spherical ball radius must stay below pi/2")
        R_tilde = math.tan(R)
    else:
        R_tilde = math.tanh(R)
    mat = _orthonormal_frame(x0.coords, sign)
    mat.flags.writeable = False
    return MapFrame(x0.space, x0, mat, float(R), float(R_tilde))


def to_ball(frame, x, tol=BALL_TOL):
    """Map manifold point(s) into the ball: x~ = (p_1..p_d)/p_{d+1}, p = frame x."""
    xc = x.coords if isinstance(x, AmbientPoint) else np.asarray(x, dtype=float)
    dist = distance(frame.x0.coords, xc, frame.sign)
    if np.any(dist > frame.R + tol):
        raise GeometryError("point lies outside the R-ball of the frame")
    p = xc @ frame.mat.T
    return p[..., :-1] / p[..., -1:]


def from_ball(frame, xt, tol=BALL_TOL):
    """Inverse map; returns ambient coordinates on the model manifold."""
    xt = np.asarray(xt, dtype=float)
    r2 = (xt * xt).sum(-1)
    if (np.sqrt(r2) > frame.R_tilde + tol).any():
        raise GeometryError("ball coordinates exceed the frame radius")
    s = 1.0 / np.sqrt(np.maximum(1.0 + frame.sign * r2, 1e-300))
    p = np.concatenate([xt * s[..., None], s[..., None]], axis=-1)
    return p @ frame.inv_mat.T


def mapped_distance(frame, xt, yt):
    """Geodesic distance computed directly from ball coordinates.

    C_K(d) = (1 + K<x~, y~>) / (sqrt(1 + K|x~|^2) sqrt(1 + K|y~|^2)) with
    C_K = cos for the sphere and cosh for the hyperboloid.
    """
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    K = float(frame.sign)
    num = 1.0 + K * np.sum(xt * yt, axis=-1)
    den = np.sqrt(1.0 + K * np.sum(xt * xt, axis=-1)) * np.sqrt(
        1.0 + K * np.sum(yt * yt, axis=-1)
    )
    c = num / den
    if frame.sign == SPHERICAL:
        if np.any(np.abs(c) > 1.0 + 1e-9):
            raise GeometryError("mapped distance argument outside [-1, 1]")
        return np.arccos(np.clip(c, -1.0, 1.0))
    if np.any(c < 1.0 - 1e-9):
        raise GeometryError("mapped distance argument below 1")
    return np.arccosh(np.maximum(c, 1.0))


def map_differential(frame, x, v):
    """Differential of the map at point(s) x applied to tangent vector(s) v."""
    p = np.asarray(x, dtype=float) @ frame.mat.T
    q = np.asarray(v, dtype=float) @ frame.mat.T
    return (q[..., :-1] * p[..., -1:] - p[..., :-1] * q[..., -1:]) / p[..., -1:] ** 2


def pushforward(frame, x, v):
    """Image direction of tangent vector(s) v at x, rescaled to keep |v|.

    The ray {x~ + t v~} is the image of the geodesic Exp_x(t v); the raw
    differential already has the radial/tangential eigenvalue structure, so
    only a renormalization to |v| is needed.
    """
    vn = norm(v, frame.sign)[..., None]
    w = map_differential(frame, x, v)
    wn = np.linalg.norm(w, axis=-1, keepdims=True)
    return np.where(wn > 0, vn * w / np.maximum(wn, 1e-300), np.zeros_like(w))


def pullback_gradient(frame, x, g, xt=None):
    """Euclidean gradient of f = F o from_ball from the Riemannian gradient of F.

    ``x`` and ``g`` are the point(s) and the gradient(s) of F there as
    ambient coordinates; ``xt`` is x in ball coordinates, computed when
    omitted.  By the chain rule grad f = J^T G g, where J is the Jacobian
    of from_ball at x~ and G the ambient metric.  With q = G (M g),
    M = frame.mat, and s2 = 1 + K |x~|^2 this is

        grad f = (q[:d] - K x~ (x~ . q[:d] + q[d]) / s2) / sqrt(s2).
    """
    xt = to_ball(frame, x) if xt is None else np.asarray(xt, dtype=float)
    K = float(frame.sign)
    q = np.asarray(g, dtype=float) @ frame.mat.T
    q[..., -1] *= K  # G = diag(1, ..., 1, K): the Minkowski flip of the last slot
    qd = q[..., :-1]
    s2 = 1.0 + K * (xt * xt).sum(-1, keepdims=True)
    radial = (xt * qd).sum(-1, keepdims=True) + q[..., -1:]
    return (qd - K * xt * radial / s2) / np.sqrt(s2)


def angle_deformation(norm_xt, alpha_tilde, sign):
    """Manifold-side angle at x between directions to x0 and to y.

    Given the Euclidean angle a~ at x~ (between x0~ - x~ and y~ - x~):
    sin a = sin a~ sqrt((1 + K r^2) / (1 + K r^2 sin^2 a~)) and
    cos a = cos a~ / sqrt(1 + K r^2 sin^2 a~), with r = |x~|.
    """
    K = float(sign)
    r2 = np.asarray(norm_xt, dtype=float) ** 2
    st, ct = np.sin(alpha_tilde), np.cos(alpha_tilde)
    den = 1.0 + K * r2 * st**2
    sin_a = st * np.sqrt((1.0 + K * r2) / den)
    cos_a = ct / np.sqrt(den)
    return sin_a, cos_a


@dataclass(frozen=True)
class DeformationConstants:
    """Worst-case map distortion constants over the radius-R ball.

    gamma_p and gamma_n sandwich the ratio of manifold to Euclidean
    directional derivatives, L_tilde bounds the Euclidean smoothness of the
    mapped objective, and dist_lo/dist_hi sandwich d(x,y)/|x~ - y~|.
    """

    gamma_n: float
    gamma_p: float
    L_tilde: float
    dist_lo: float
    dist_hi: float


def deformation_constants_for(sign, R, L):
    if L <= 0:
        raise GeometryError("smoothness constant must be positive")
    root44 = math.sqrt(44.0)
    if sign == HYPERBOLIC:
        ch = math.cosh(R)
        return DeformationConstants(
            gamma_n=ch**-2,
            gamma_p=ch**-3,
            L_tilde=root44 * L * max(1.0, R) * ch**4,
            dist_lo=1.0,
            dist_hi=ch**2,
        )
    co = math.cos(R)
    return DeformationConstants(
        gamma_n=co**3,
        gamma_p=co**2,
        L_tilde=root44 * L * max(1.0, R),
        dist_lo=co**2,
        dist_hi=1.0,
    )


def deformation_constants(frame, L):
    """Distortion constants of a frame for an L-smooth objective."""
    return deformation_constants_for(frame.sign, frame.R, L)
