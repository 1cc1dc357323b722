"""Recenterable geodesic map between the model manifold and a Euclidean ball.

The map is the gnomonic projection for the sphere and the Beltrami-Klein
projection for the hyperboloid: after the frame isometry M that sends the
basepoint x0 to the canonical pole, one metric reflection and a sign flip
(closed form in ``make_frame``, applied in O(d) per point), a point with
frame coordinates p = M x maps to

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

    The frame isometry M sends x0 to the pole.  It is held as three
    (d+1)-vectors, the sign flip ``s``, the reflection vector ``w`` and
    ``a = 2 G w / <w, w>`` (``make_frame`` derives them), and applied as

        M v = s * (v - (v . a) w),    M^{-1} p = q - (q . a) w,  q = s * p.
    """

    x0: AmbientPoint
    R: float
    R_tilde: float
    s: np.ndarray
    w: np.ndarray
    a: np.ndarray

    @property
    def sign(self):
        return self.x0.space.sign

    @property
    def d(self):
        return self.x0.d


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

    With K the curvature sign, G = diag(1, ..., 1, K), <a, b> = a^T G b and
    e the pole, <x0, x0> = <e, e> = K and <x0, e> = K c, c = x0[d].  The
    metric reflection in w is P_w v = v - 2 <v, w> / <w, w> w = v - (v . a) w
    with a = 2 G w / <w, w>.  For w = x0 + e, P_w swaps x0 and -e, and
    P_e = diag(1, ..., 1, -1) sends -e to e: M = P_e P_w, s = (1, ..., 1, -1),
    and M^{-1} = P_w P_e.  At the pole w = 2e, a = e and M is exactly the
    identity.  On the sphere below the equator (c < 0), where <w, w> =
    2 (1 + c) may vanish, the half-turn H = diag(-1, 1, ..., 1, -1) goes
    first; as H P_v H = P_{Hv}, M = P_e P_{Hx0 + e} H = (P_e H) P_{x0 - e}, so
    w = x0 - e and s = (-1, 1, ..., 1), which covers x0 = -e.  Either way
    w = x0 + f with f = +-e and <w, w> = 2 (K + <x0, f>) = 2 <w, f>, which is
    2K (1 + |c|) to one rounding: a = G w / <w, f>.
    """
    sign = x0.space.sign
    R_tilde = ball_radius(sign, R)
    f = np.zeros(x0.d + 1)
    f[-1] = -1.0 if sign == SPHERICAL and x0.coords[-1] < 0.0 else 1.0
    s = np.ones(x0.d + 1)
    s[0 if f[-1] < 0.0 else -1] = -1.0
    w = x0.coords + f
    a = w / inner(w, f, sign)
    a[-1] *= sign  # a = G w / <w, f>
    s.flags.writeable = w.flags.writeable = a.flags.writeable = False
    return MapFrame(x0, float(R), float(R_tilde), s, w, a)


def _isometry(frame, v, inverse=False):
    """M v = s * P_w v, or M^{-1} v = P_w (s * v), along the last axis of v."""
    if inverse:
        q = frame.s * v
        q -= np.multiply.outer(q @ frame.a, frame.w)
        return q
    q = v - np.multiply.outer(v @ frame.a, frame.w)
    q *= frame.s
    return q


def to_ball(frame, x):
    """Map manifold point(s) into the ball: x~ = (p_1..p_d)/p_{d+1}, p = M x."""
    xc = x.coords if isinstance(x, AmbientPoint) else np.asarray(x, dtype=float)
    dist = distance(frame.x0.coords, xc, frame.sign)
    if not np.all(dist <= frame.R + BALL_TOL):  # written so that NaN fails it
        raise GeometryError("point lies outside the R-ball of the frame")
    p = _isometry(frame, xc)
    return p[..., :-1] / p[..., -1:]


def _ball_r2(frame, xt):
    """|x~|^2, shape (..., 1), of ball point(s) x~ within R~ + BALL_TOL, or raise.

    The test is written so that NaN fails it.
    """
    r2 = (xt * xt).sum(-1, keepdims=True)
    if not (np.sqrt(r2) <= frame.R_tilde + BALL_TOL).all():
        raise GeometryError("ball coordinates exceed the frame radius")
    return r2


def _ball_scale(frame, xt):
    """s = 1 / sqrt(1 + K |x~|^2), shape (..., 1), of ball point(s) x~ checked by ``_ball_r2``."""
    return 1.0 / np.sqrt(np.maximum(1.0 + frame.sign * _ball_r2(frame, xt), 1e-300))


def _lift(frame, xt):
    """Frame coordinates p = s (x~, 1) of ball point(s) x~, checked by ``_ball_scale``."""
    xt = np.asarray(xt, dtype=float)
    s = _ball_scale(frame, xt)
    return np.concatenate([xt * s, s], axis=-1)


def from_ball(frame, xt):
    """Inverse map: ambient coordinates M^{-1} p of ball point(s) x~ on the model.

    p = s (x~, 1) (``_lift``) is the image of the manifold point under the
    frame isometry; ball coordinates beyond R~ + BALL_TOL raise.
    """
    return _isometry(frame, _lift(frame, xt), inverse=True)


def mapped_distance(frame, xt, yt):
    """Geodesic distance computed directly from ball coordinates.

    The frame isometry preserves distances, so this is ``manifolds.distance``
    of the frame coordinates p = s (x~, 1), in its chord form, which resolves
    ball steps down to rounding.  Ball coordinates beyond R~ + BALL_TOL raise.
    """
    return distance(_lift(frame, xt), _lift(frame, yt), frame.sign)


def map_differential(frame, x, v):
    """Differential of the map at point(s) x applied to tangent vector(s) v."""
    p = _isometry(frame, x)
    q = _isometry(frame, v)
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
    of from_ball at x~ and G the ambient metric.  With q = G (M g), M the
    frame isometry, and s2 = 1 + K |x~|^2 this is

        grad f = (q[:d] - K x~ (x~ . q[:d] + q[d]) / s2) / sqrt(s2).

    Like ``from_ball``, it refuses ball coordinates beyond R~ + BALL_TOL.
    """
    xt = to_ball(frame, x) if xt is None else np.asarray(xt, dtype=float)
    K = float(frame.sign)
    q = _isometry(frame, g)
    q[..., -1] *= K  # G = diag(1, ..., 1, K): the Minkowski flip of the last slot
    qd = q[..., :-1]
    s2 = 1.0 + K * _ball_r2(frame, xt)
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
