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
    GeometryError,
    distance,
    inner,
    norm,
    rowsum,
)

BALL_TOL = 1e-9
# Hyperboloid coordinates have size cosh R, so -<p, p> (true value 1) carries
# a rounding error of about cosh(R)^2 x 2.2e-16.  Above this radius (16.4)
# that error exceeds 1e-2 and rounding, not geometry, sets how points are
# renormalized; from R = 18 (error 0.24) even its sign is chance.
MAX_HYPERBOLIC_R = math.acosh(math.sqrt(1e-2 / np.finfo(float).eps))
_LIGHTLIKE = "ball coordinates lift to no point of the hyperboloid: 1 - |x~|^2 is not positive"


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
    """Radius R~ of the image of a radius-R ball: tan R (sphere) or tanh R (hyperboloid).

    This is the library's one radius rule: it refuses, with one
    ``GeometryError`` naming R and the bound, an R that is not in (0, pi/2)
    on the sphere (an open hemisphere) or in (0, MAX_HYPERBOLIC_R] on the
    hyperboloid.  The tests are written so that NaN fails them.
    """
    if sign == SPHERICAL:
        if not 0.0 < R < math.pi / 2:
            raise GeometryError(f"ball radius R = {float(R)!r} must lie in (0, pi/2) on the sphere")
        return math.tan(R)
    if not 0.0 < R <= MAX_HYPERBOLIC_R:
        raise GeometryError(f"ball radius R = {float(R)!r} must lie in (0, {MAX_HYPERBOLIC_R!r}] on the hyperboloid")
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
    """M v = s * P_w v, or M^{-1} v = P_w (s * v), along the last axis of v, read C-contiguous."""
    v = np.ascontiguousarray(v, dtype=float)
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
    # The map would read a point off the model as the model point on its ray.  Both
    # tests are written so that NaN fails them.  sq = |x|^2 is the rounding scale of <x, x>.
    sq = rowsum(xc * xc)
    xx = sq if frame.sign == SPHERICAL else sq - 2.0 * xc[..., -1] ** 2  # <x, x>, one rowsum for both
    if not np.all(np.abs(xx - frame.sign) <= BALL_TOL * sq):
        raise GeometryError("point lies off the model")
    dist = distance(frame.x0.coords, xc, frame.sign)
    if not np.all(dist <= frame.R + BALL_TOL):
        raise GeometryError("point lies outside the R-ball of the frame")
    p = _isometry(frame, xc)
    return p[..., :-1] / p[..., -1:]


def _ball_s2(frame, xt):
    """1 + K |x~|^2, shape (..., 1), of ball point(s) x~, or raise.

    x~ must lie within R~ + BALL_TOL, and 1 + K |x~|^2 must be positive.
    The latter fails only on the hyperboloid once tanh R is within BALL_TOL
    of 1 (R above about 10.7): there such an x~ lifts to a lightlike or
    spacelike vector, no point of the model.  Both tests are written so
    that NaN fails them.
    """
    r2 = rowsum(xt * xt, keepdims=True)
    if not (np.sqrt(r2) <= frame.R_tilde + BALL_TOL).all():
        raise GeometryError("ball coordinates exceed the frame radius")
    s2 = 1.0 + frame.sign * r2
    if not (s2 > 0.0).all():
        raise GeometryError(_LIGHTLIKE)
    return s2


def _ball_scale(frame, xt):
    """s = 1 / sqrt(1 + K |x~|^2), shape (..., 1), of ball point(s) x~ checked by ``_ball_s2``."""
    return 1.0 / np.sqrt(_ball_s2(frame, xt))


def _lift(frame, xt):
    """Frame coordinates p = s (x~, 1) of ball point(s) x~, checked by ``_ball_scale``."""
    xt = np.asarray(xt, dtype=float)
    s = _ball_scale(frame, xt)
    return np.concatenate([xt * s, s], axis=-1)


def from_ball(frame, xt):
    """Inverse map: ambient coordinates M^{-1} p of ball point(s) x~ on the model.

    p = s (x~, 1) (``_lift``) is the image of the manifold point under the
    frame isometry; ball coordinates beyond R~ + BALL_TOL raise, and so do
    those that lift to no point of the model (see ``_ball_s2``).
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
    wn = np.sqrt(rowsum(w * w, keepdims=True))
    return np.where(wn > 0, vn * w / np.maximum(wn, 1e-300), np.zeros_like(w))


def pullback_gradient(frame, x, g, xt=None):
    """Euclidean gradient of f = F o from_ball from the Riemannian gradient of F.

    ``x`` and ``g`` are the point(s) and the gradient(s) of F there as
    ambient coordinates; ``xt`` is x in ball coordinates, computed when
    omitted.  By the chain rule grad f = J^T G g, where J is the Jacobian
    of from_ball at x~ and G the ambient metric.  With q = G (M g), M the
    frame isometry, and s2 = 1 + K |x~|^2 this is

        grad f = (q[:d] - K x~ (x~ . q[:d] + q[d]) / s2) / sqrt(s2).

    Like ``from_ball``, it refuses the ball coordinates that ``_ball_s2`` refuses.
    """
    xt = to_ball(frame, x) if xt is None else np.asarray(xt, dtype=float)
    K = float(frame.sign)
    q = _isometry(frame, g)
    q[..., -1] *= K  # G = diag(1, ..., 1, K): the Minkowski flip of the last slot
    qd = q[..., :-1]
    s2 = _ball_s2(frame, xt)
    radial = rowsum(xt * qd, keepdims=True) + q[..., -1:]
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


# Relative amount by which the hyperbolic ratio extremes are widened: it
# covers the rounding of their evaluation, under 8 ulps (1.8e-15) with a
# libm accurate to 2 ulps, with room for a less accurate one.
RATIO_MARGIN = 1e-13


def _ratio_extreme(R, side):
    """delta / sinh(delta) * (cosh(delta - R) / cosh R)^side at its extreme over [0, 2R].

    With q = ln(delta / sinh delta), q' = 1/delta - coth(delta) falls
    strictly from 0 to -1, and the log-derivative is q' + side tanh(delta - R).

    - side = -1 (a maximum): the log-derivative falls strictly, from tanh R
      at 0 to q'(R) < 0 at R, so its one root lies in (0, R).
    - side = +1 (a minimum): the log-derivative is negative on (0, R], where
      both terms are, and 1/(2R) - 1/sinh(2R) > 0 at 2R.  At any root,
      tanh(delta - R) = -q' gives the second derivative
      q'' + sech^2(delta - R) = (2/delta)(coth(delta) - 1/delta) > 0, so
      every root is a strict local minimum and there is one, in (R, 2R).

    Bisection on the sign of the log-derivative inside that bracket ends at
    adjacent floats and never tests delta = 0, where 1/delta - coth(delta)
    vanishes only as a limit.  The value returned is the ratio at the delta
    found, which an actual configuration attains, so the only errors of the
    extreme are the rounding of that value and the second-order cost of
    missing the root, which is far smaller.  Below R = 1.2e-308 the
    bisection may end at delta = 0: 1/delta overflows to inf there, the
    NaN test moves hi down, and at R = 5e-324 the bracket (0, R) holds no
    float.  There every ratio rounds to 1, and delta / sinh(delta) takes
    its limit 1.
    """
    lo, hi = (R, 2.0 * R) if side > 0 else (0.0, R)
    while True:
        delta = 0.5 * (lo + hi)
        if delta <= lo or delta >= hi:
            break
        if side * (1.0 / delta - 1.0 / math.tanh(delta) + side * math.tanh(delta - R)) < 0.0:
            lo = delta
        else:
            hi = delta
    return (delta / math.sinh(delta) if delta else 1.0) * (math.cosh(delta - R) / math.cosh(R)) ** side


def deformation_constants_for(sign, R, L):
    """Worst-case distortion constants of the radius-R ball for an L-smooth objective.

    L_tilde assumes that the objective's minimizer lies in the ball.

    On the hyperboloid gamma_p and 1/gamma_n are the exact extremes over
    x, y in the ball of the directional ratio

        rho = <grad F(x), Log_x y> / <grad f(x~), y~ - x~>,

    each moved outward by the relative ``RATIO_MARGIN`` and capped at 1:

    - rho does not depend on F.  With J the Jacobian of from_ball at x~,
      grad f = J^T grad F, and J (y~ - x~) is a positive multiple of
      Log_x y because the map sends geodesics to lines.  So rho is
      d(x, y) / (|y~ - x~| v(x~)), with v the metric speed of the chord
      per unit of Euclidean length: the chord's mean speed over its speed
      at x~.
    - On a line at distance b from the centre, at position l along it, the
      radial and tangential eigenvalues of the map give
      v = sqrt(1 - b^2) / (1 - b^2 - l^2).  With l = sqrt(1 - b^2) tanh(s),
      v dl = ds, and a chord from s0 (x) to s1 (y) has, with
      delta = s1 - s0,

          rho = (s1 - s0) / ((tanh s1 - tanh s0) cosh^2 s0)
              = (delta / sinh delta) cosh s1 / cosh s0.

      b drops out.  The chord stays in the ball exactly when
      tanh^2 s <= (R~^2 - b^2) / (1 - b^2), which is largest, tanh^2 R,
      at b = 0.  So the extremes of rho are those over s0, s1 in [-R, R],
      and b = 0 (a chord through the centre) is the worst case.
    - Inside that square, d ln rho / d s1 = q'(delta) + tanh s1 and
      d ln rho / d s0 = -q'(delta) - tanh s0, q = ln(delta / sinh delta).
      Both vanish only where tanh s0 = tanh s1, so delta = 0, and then
      only at s0 = s1 = 0, where rho = 1.  The edges reach below and above
      that, 2R / sinh(2R) at (-R, R) and R coth(R) at (0, R), so the
      extremes lie on the edges.  As rho(s0, s1) = rho(-s0, -s1), two
      edges remain: x on the rim (s0 = -R) gives
      rho_A = (delta / sinh delta) cosh(delta - R) / cosh R, and y on the
      rim (s1 = -R) gives rho_B = (delta / sinh delta) cosh R /
      cosh(delta - R), both over delta in [0, 2R].  rho_B / rho_A =
      cosh^2 R / cosh^2(delta - R) >= 1, so gamma_p = min rho_A and
      1/gamma_n = max rho_B (``_ratio_extreme``).

    At R = 1 this gives [0.51454, 1.36452], where bounding each distortion
    factor on its own (cosh^-3 R, cosh^2 R) gives [0.2722, 2.3811].  The
    squares of two radii nest, so gamma_p and gamma_n are nonincreasing in
    R, and both tend to 1 as R goes to 0.

    On the hyperboloid L_tilde = L cosh^4 R (1 + 4 R tanh R) bounds the
    second derivative of f = F o from_ball along every line of the ball,
    for F whose minimizer x* lies in the ball, as the library assumes
    throughout (``bench.rgd_budget``'s initial gap 2 L R^2, the restart
    rounds' radii):

    - The map sends geodesics to lines, so along x~ + tau e, |e| = 1, f is
      F along a unit-speed geodesic, reparametrized by its metric speed
      sigma = ds / dtau (the v above): (f o line)'' = sigma^2 Hess F(u, u)
      + sigma' <grad F, u>, u the geodesic's unit tangent.
    - With r^2 = b^2 + l^2 <= tanh^2 R, sigma = sqrt(1 - b^2) / (1 - r^2)
      <= cosh^2 R, and |sigma'| = |d sigma / dl| = 2 |l| sqrt(1 - b^2) /
      (1 - r^2)^2 <= 2 tanh R cosh^4 R.  Both maxima fall at b = 0 on the
      rim, l = tanh R.
    - |Hess F(u, u)| <= L, and |grad F(x)| <= L d(x, x*) <= 2 L R, since
      grad F(x*) = 0 and the gradient is L-Lipschitz along the geodesic.

    So |(f o line)''| <= L cosh^4 R + 2 tanh R cosh^4 R 2 L R.  This is at
    least 1.5 times below the per-factor sqrt(44) L max(1, R) cosh^4 R at
    every R (1.64 times at R = 1, about 6.6 times as R goes to 0).  The
    spherical constants still bound each distortion factor on its own.
    """
    if L <= 0:
        raise GeometryError("smoothness constant must be positive")
    root44 = math.sqrt(44.0)
    if sign == HYPERBOLIC:
        ch = math.cosh(R)
        shrink = 1.0 - RATIO_MARGIN
        return DeformationConstants(
            gamma_n=min(1.0, shrink / _ratio_extreme(R, -1)),
            gamma_p=min(1.0, shrink * _ratio_extreme(R, 1)),
            L_tilde=L * ch**4 * (1.0 + 4.0 * R * math.tanh(R)),
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
    """Distortion constants of a frame for an L-smooth objective whose minimizer lies in its ball."""
    return deformation_constants_for(frame.sign, frame.R, L)
