"""Constant-curvature manifold primitives.

Points live in a numerically stable embedding: the unit sphere in R^{d+1}
for curvature sign +1, or the upper sheet of the unit hyperboloid in
Minkowski space R^{d,1} for curvature sign -1.  Every kernel below takes
coordinate arrays of shape (..., d+1) and broadcasts over leading axes;
the frozen dataclasses are thin validated wrappers around single points.

Curvatures other than +-1 are handled by ``rescale_to_unit``, which maps a
problem with curvature K to the unit model while rescaling the radius and
the smoothness/strong-convexity constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPHERICAL = 1
HYPERBOLIC = -1

# Tolerance for distance-domain violations: arccos/arccosh arguments may
# drift outside their domain by rounding up to this amount; anything larger
# signals a broken invariant and raises.
DOMAIN_TOL = 1e-9

_POINT_TOL = 1e-12
_TANGENT_TOL = 1e-10


class GeometryError(ValueError):
    """A geometric precondition or invariant was violated beyond tolerance."""


def inner(u, v, sign):
    """Ambient metric inner product along the last axis.

    Euclidean for the sphere, Minkowski (+,...,+,-) for the hyperboloid.
    """
    s = np.sum(u * v, axis=-1)
    if sign == HYPERBOLIC:
        s = s - 2.0 * u[..., -1] * v[..., -1]
    return s


def norm(v, sign):
    """Metric norm of tangent vectors (spacelike on the hyperboloid)."""
    sq = inner(v, v, sign)
    return np.sqrt(np.maximum(sq, 0.0))


def project_point(p, sign):
    """Renormalize onto the model: |p| = 1 or <p,p>_L = -1 (upper sheet)."""
    p = np.asarray(p, dtype=float)
    if sign == SPHERICAL:
        n = np.linalg.norm(p, axis=-1, keepdims=True)
        if np.any(n <= 0):
            raise GeometryError("cannot project the zero vector to the sphere")
        return p / n
    q = -inner(p, p, sign)
    if np.any(q <= 0) or np.any(p[..., -1] <= 0):
        raise GeometryError("point is not timelike on the upper hyperboloid sheet")
    return p / np.sqrt(q)[..., None]


def project_tangent(x, v, sign):
    """Remove the component of v normal to the tangent space at x."""
    c = inner(v, x, sign)
    return v - sign * c[..., None] * x


def distance(x, y, sign, tol=DOMAIN_TOL):
    """Geodesic distance: arccos<x,y> (sphere) / arccosh(-<x,y>_L) (hyperboloid).

    Arguments drifting outside the valid arccos/arccosh domain by more than
    ``tol`` raise; smaller drift is clamped.
    """
    c = inner(x, y, sign)
    if sign == SPHERICAL:
        if np.any(np.abs(c) > 1.0 + tol):
            raise GeometryError("arccos argument outside [-1, 1] beyond tolerance")
        return np.arccos(np.clip(c, -1.0, 1.0))
    a = -c
    if np.any(a < 1.0 - tol):
        raise GeometryError("arccosh argument below 1 beyond tolerance")
    return np.arccosh(np.maximum(a, 1.0))


def exp_map(x, v, sign):
    """Exponential map: cos/sin (sphere) or cosh/sinh (hyperboloid) along v."""
    t = norm(v, sign)[..., None]
    safe = np.maximum(t, 1e-300)
    u = v / safe
    if sign == SPHERICAL:
        out = np.cos(t) * x + np.sin(t) * u
    else:
        out = np.cosh(t) * x + np.sinh(t) * u
    out = np.where(t > 0, out, x)
    return project_point(out, sign)


def log_map(x, y, sign):
    """Inverse exponential map; returns the zero vector when x == y."""
    d = distance(x, y, sign)[..., None]
    u = project_tangent(x, y, sign)
    n = norm(u, sign)[..., None]
    safe = np.maximum(n, 1e-300)
    return np.where(n > 0, d * u / safe, np.zeros_like(u))


def grad_half_sqdist(x, anchor, sign):
    """Riemannian gradient of x -> d(x, anchor)^2 / 2, i.e. -log_map(x, anchor)."""
    return -log_map(x, anchor, sign)


@dataclass(frozen=True)
class CurvatureClass:
    """Curvature sign (+1 sphere, -1 hyperbolic) plus the raw curvature K != 0."""

    sign: int
    raw_curvature: float

    def __post_init__(self):
        if self.sign not in (SPHERICAL, HYPERBOLIC):
            raise GeometryError("sign must be +1 or -1")
        if self.raw_curvature == 0 or self.raw_curvature * self.sign <= 0:
            raise GeometryError("raw_curvature must be nonzero and agree with sign")

    @classmethod
    def spherical(cls, K=1.0):
        return cls(SPHERICAL, K)

    @classmethod
    def hyperbolic(cls, K=-1.0):
        return cls(HYPERBOLIC, K)

    @classmethod
    def from_curvature(cls, K):
        if K == 0:
            raise GeometryError("K = 0 is Euclidean; use a flat-space solver")
        return cls(SPHERICAL if K > 0 else HYPERBOLIC, K)


@dataclass(frozen=True)
class AmbientPoint:
    """A manifold point in its embedding; re-projected on construction."""

    coords: np.ndarray
    space: CurvatureClass

    def __post_init__(self):
        c = project_point(np.asarray(self.coords, dtype=float), self.space.sign)
        if c.ndim != 1:
            raise GeometryError("AmbientPoint holds a single point")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def d(self):
        return self.coords.shape[-1] - 1

    def distance_to(self, other):
        return float(distance(self.coords, other.coords, self.space.sign))

    def log_to(self, other):
        return TangentVector(self, log_map(self.coords, other.coords, self.space.sign))

    def half_sqdist_grad(self, anchor):
        """Gradient of F(x) = d(x, anchor)^2 / 2 at this point."""
        return TangentVector(
            self, grad_half_sqdist(self.coords, anchor.coords, self.space.sign)
        )

    def isclose(self, other, tol=1e-9):
        return self.distance_to(other) <= tol


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector constrained to the tangent space at its base point."""

    base: AmbientPoint
    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape != self.base.coords.shape:
            raise GeometryError("tangent vector shape must match its base point")
        v = project_tangent(self.base.coords, v, self.base.space.sign)
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    @property
    def norm(self):
        return float(norm(self.vec, self.base.space.sign))

    def exp(self):
        return AmbientPoint(
            exp_map(self.base.coords, self.vec, self.base.space.sign), self.base.space
        )


def pole(d, space):
    """The canonical pole (0, ..., 0, 1)."""
    c = np.zeros(d + 1)
    c[-1] = 1.0
    return AmbientPoint(c, space)


@dataclass(frozen=True)
class RescaledProblem:
    """Problem constants after normalizing the curvature to +-1."""

    unit_R: float
    unit_L: float
    unit_mu: float
    space: CurvatureClass


def rescale_to_unit(K, R, L, mu):
    """Map (K, R, L, mu) to the unit-curvature model.

    Distances scale by sqrt|K|, so the radius becomes sqrt|K| R while the
    smoothness and strong-convexity moduli become L/|K| and mu/|K|.
    """
    if K == 0:
        raise GeometryError("K = 0 is Euclidean and out of scope here")
    if R <= 0:
        raise GeometryError("R must be positive")
    if not (L >= mu >= 0):
        raise GeometryError("need L >= mu >= 0")
    a = math.sqrt(abs(K))
    unit_R = a * R
    if K > 0 and unit_R >= math.pi / 2:
        raise GeometryError("spherical radius sqrt(K) R must stay below pi/2")
    return RescaledProblem(unit_R, L / abs(K), mu / abs(K), CurvatureClass.from_curvature(K))


def random_tangent(x, sign, rng, size=None):
    """Unit tangent vector(s) at x, uniform in direction."""
    x = np.asarray(x, dtype=float)
    shape = x.shape if size is None else (size,) + x.shape
    g = rng.standard_normal(shape)
    v = project_tangent(x, g, sign)
    n = norm(v, sign)[..., None]
    while np.any(n < 1e-12):  # pragma: no cover - astronomically unlikely
        g = rng.standard_normal(shape)
        v = project_tangent(x, g, sign)
        n = norm(v, sign)[..., None]
    return v / n


def random_in_ball(center, sign, radius, rng, size, boundary_bias=False):
    """Random points in the closed geodesic ball around ``center``.

    Radii are drawn uniformly by default; with ``boundary_bias`` the upper
    radius range is oversampled, which is useful when probing extremal
    distortion behaviour near the ball boundary.
    """
    center = np.asarray(center, dtype=float)
    u = random_tangent(center, sign, rng, size=size)
    r = rng.uniform(0.0, radius, size=size)
    if boundary_bias:
        hi = rng.uniform(0.9 * radius, radius, size=size)
        pick = rng.random(size) < 0.5
        r = np.where(pick, hi, r)
    return exp_map(center, r[:, None] * u, sign)
