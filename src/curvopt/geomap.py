"""Recenterable geodesic map between the model manifold and a Euclidean ball.

The map is the gnomonic projection for the sphere and the Beltrami-Klein
projection for the hyperboloid: after the frame isometry M, the rotation
in the plane of the basepoint x0 and the canonical pole that sends x0 to
the pole (closed form in ``make_frame``), a point with frame coordinates
p = M x maps to

    x~ = (p_1, ..., p_d) / p_{d+1},

which sends geodesics to straight lines.  Its image of the radius-R ball is
the Euclidean ball of radius R~ = tan(R) (sphere, R < pi/2) or tanh(R)
(hyperboloid).  Distances, angles and gradients deform under the map; the
kernels below give the exact deformation formulas and the worst-case
constants over the ball that the solver consumes.

Conventions: with r = |x~| and curvature sign K, the differential of the
map at x has radial eigenvalue (1 + K r^2) and tangential eigenvalue
sqrt(1 + K r^2) with respect to metric-orthonormal directions.  The inverse
is closed-form: from_ball(x~) = M^{-1} p with frame coordinates
p = (x~, 1) / sqrt(1 + K r^2).  ``pullback_gradient`` pulls a Riemannian
gradient back through it by the chain rule, with no log map and no special
case at the basepoint; ``objectives.MappedObjective`` skips the pullback
for the library's squared-distance objectives, whose mapped value and
gradient it evaluates in closed form from x~.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


class MapFrame(NamedTuple):
    """Geodesic map centered at x0 covering the radius-R ball.

    ``mat`` is the isometry M sending x0 to the pole and ``inv_mat`` its
    inverse; ``make_frame`` builds both.
    """

    space: CurvatureClass
    x0: AmbientPoint
    mat: np.ndarray
    inv_mat: np.ndarray
    R: float
    R_tilde: float

    @property
    def sign(self):
        return self.space.sign

    @property
    def d(self):
        return self.mat.shape[0] - 1


def ball_radius(sign, R):
    """Radius R~ of the image of a radius-R ball: tan R (sphere, R < pi/2) or tanh R."""
    if R <= 0:
        raise GeometryError("ball radius must be positive")
    if sign == SPHERICAL:
        if R >= math.pi / 2:
            raise GeometryError("spherical ball radius must stay below pi/2")
        return math.tan(R)
    return math.tanh(R)


def make_frame(x0, R):
    """Build the map frame at basepoint x0 for ball radius R.

    With K the curvature sign, G = diag(1, ..., 1, K) the ambient metric
    and e the pole, <a, b> = a^T G b gives <x0, x0> = <e, e> = K and
    <x0, e> = K c with c = x0[d] = C_K(d(x0, e)).  The frame isometry is
    the rotation in the plane of x0 and e, the product of two metric
    reflections R_w(v) = v - 2 <v, w> / <w, w> w:

    - with u = x0 + e, <u, u> = 2K (1 + c), the reflection
      P = R_u = I - K u (G u)^T / (1 + c) swaps x0 and -e;
    - R_e = I - 2K e (G e)^T then sends -e to e.

    Since P is G-self-adjoint and P e = -x0, M = R_e P = P + 2K e (G x0)^T
    (its last row is K (G x0)^T) and, the reflections being involutions,
    M^{-1} = P R_e = P + 2 x0 e^T.  At the pole u = 2e and both are exactly
    the identity.  On the hyperboloid c >= 1.  On the sphere below the
    equator (c < 0) the half-turn H = diag(-1, 1, ..., 1, -1) is applied
    first, M = M(H x0) H and M^{-1} = H M(H x0)^{-1}, which keeps 1 + c >= 1
    and covers x0 = -e.
    """
    sign = x0.space.sign
    R_tilde = ball_radius(sign, R)
    K = float(sign)
    n = x0.d + 1
    h = np.ones(n)  # diagonal of H, applied below the equator only
    if sign == SPHERICAL and x0.coords[-1] < 0.0:
        h[0] = h[-1] = -1.0
    x = h * x0.coords
    eye = np.eye(n)
    u = x + eye[-1]
    # inner(eye, w, sign) is the covector G w.
    P = eye - u[:, None] * ((K / (1.0 + x[-1])) * inner(eye, u, sign))
    mat = P.copy()
    mat[-1] += (2.0 * K) * inner(eye, x, sign)
    mat *= h
    inv_mat = P
    inv_mat[:, -1] += 2.0 * x
    inv_mat *= h[:, None]
    mat.flags.writeable = False
    inv_mat.flags.writeable = False
    return MapFrame(x0.space, x0, mat, inv_mat, float(R), float(R_tilde))


def to_ball(frame, x):
    """Map manifold point(s) into the ball: x~ = (p_1..p_d)/p_{d+1}, p = frame x."""
    xc = x.coords if isinstance(x, AmbientPoint) else np.asarray(x, dtype=float)
    dist = distance(frame.x0.coords, xc, frame.sign)
    if np.any(dist > frame.R + BALL_TOL):
        raise GeometryError("point lies outside the R-ball of the frame")
    p = xc @ frame.mat.T
    return p[..., :-1] / p[..., -1:]


def _lift(sign, xt, r2):
    """Frame coordinates p = s (x~, 1), s = 1 / sqrt(1 + K r2), of ball point(s) x~; r2 = |x~|^2."""
    s = (1.0 / np.sqrt(np.maximum(1.0 + sign * r2, 1e-300)))[..., None]
    return np.concatenate([xt * s, s], axis=-1)


def from_ball(frame, xt):
    """Inverse map: ambient coordinates M^{-1} p of ball point(s) x~ on the model.

    p = s (x~, 1), s = 1 / sqrt(1 + K |x~|^2), is the image of the manifold
    point under the frame isometry; ball coordinates beyond R~ + BALL_TOL
    raise.
    """
    xt = np.asarray(xt, dtype=float)
    r2 = (xt * xt).sum(-1)
    if (np.sqrt(r2) > frame.R_tilde + BALL_TOL).any():
        raise GeometryError("ball coordinates exceed the frame radius")
    return _lift(frame.sign, xt, r2) @ frame.inv_mat.T


def mapped_distance(frame, xt, yt):
    """Geodesic distance computed directly from ball coordinates.

    The frame isometry preserves distances, so this is ``manifolds.distance``
    of the frame coordinates p = s (x~, 1), in its chord form, which resolves
    ball steps down to rounding.
    """
    xt = np.asarray(xt, dtype=float)
    yt = np.asarray(yt, dtype=float)
    p = _lift(frame.sign, xt, (xt * xt).sum(-1))
    q = _lift(frame.sign, yt, (yt * yt).sum(-1))
    return distance(p, q, frame.sign)


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


class DeformationConstants(NamedTuple):
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
