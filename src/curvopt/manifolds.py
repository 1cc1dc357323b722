"""Constant-curvature manifold primitives.

Points live in a numerically stable embedding: the unit sphere in R^{d+1}
for curvature sign +1, or the upper sheet of the unit hyperboloid in
Minkowski space R^{d,1} for curvature sign -1.  Every kernel below takes
coordinate arrays of shape (..., d+1) and broadcasts over leading axes,
tangent vectors included; ``AmbientPoint`` is a thin validated wrapper
around a single point.

Batched kernels reduce rows with ``rowsum``.  numpy's ``add.reduce`` along
a short last axis costs about 25 ns per row, 4 to 10 times an elementwise
pass over the batch, and its order, so its bits, depend on the batch's
memory layout.  ``rowsum`` adds whole columns in numpy's order for a
C-contiguous batch: the same bits, for every layout, at a fraction of the
cost.

Only the unit models are represented.  A problem of curvature K is the
unit-model problem with every distance scaled by sqrt|K|, so callers scale
the ball radius to sqrt|K| R (and smoothness and strong convexity by 1/|K|)
before they get here, as ``bench.build_instance`` does.
"""

from __future__ import annotations

import numpy as np

SPHERICAL = 1
HYPERBOLIC = -1

# The one tolerance of the model tests, relative to the rounding scale of
# the product tested: <p, p> of a point may miss K by DOMAIN_TOL |p|^2
# (``on_model``), and <x, y> of a pair may leave the arccos/arccosh domain by
# DOMAIN_TOL, times x_d y_d on the hyperboloid (``distance``).  Anything
# larger signals a broken invariant.
DOMAIN_TOL = 1e-9


class GeometryError(ValueError):
    """A geometric precondition or invariant was violated beyond tolerance."""


def rowsum(p, keepdims=False):
    """``np.add.reduce(p, -1, keepdims=keepdims)`` of a float64 array, bit for bit.

    A batch of rows of n <= 128 is summed as whole-column adds over the
    batch, in the order of numpy's pairwise summation (Higham, SIAM J. Sci.
    Comput. 14, 1993), which adds each row to +0.0: left to right for
    n < 8; for n >= 8, eight accumulators over strides of 8, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail.  One
    point (1-D) and wider rows take ``np.add.reduce``.  Which of two
    different NaNs survives an add is left to the hardware, as numpy
    leaves it.
    """
    n = p.shape[-1]
    if p.ndim < 2 or n > 128:
        return np.add.reduce(p, -1, keepdims=keepdims)
    m = n - n % 8
    s = np.zeros(p.shape[:-1])
    if m:
        r = p[..., :8]
        for i in range(8, m, 8):
            r = r + p[..., i : i + 8]
        s += ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])) + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
    for j in range(m, n):
        s += p[..., j]
    return s[..., None] if keepdims else s


def inner(u, v, sign):
    """Ambient metric inner product along the last axis.

    Euclidean for the sphere, Minkowski (+,...,+,-) for the hyperboloid.
    """
    s = rowsum(u * v)
    if sign == HYPERBOLIC:
        s = s - 2.0 * u[..., -1] * v[..., -1]
    return s


def norm(v, sign):
    """Metric norm of tangent vectors (spacelike on the hyperboloid)."""
    sq = inner(v, v, sign)
    return np.sqrt(np.maximum(sq, 0.0))


def project_point(p, sign):
    """Renormalize onto the model: |p| = 1 or <p,p>_L = -1 (upper sheet).

    A norm that is not finite raises: NaN passes every sign test below.
    """
    p = np.asarray(p, dtype=float)
    q = np.sqrt(rowsum(p * p, keepdims=True)) if sign == SPHERICAL else -inner(p, p, sign)
    if not np.isfinite(q).all():
        raise GeometryError("point coordinates and their norm must be finite")
    if sign == SPHERICAL:
        if np.any(q <= 0):
            raise GeometryError("cannot project the zero vector to the sphere")
        return p / q
    if np.any(q <= 0) or np.any(p[..., -1] <= 0):
        raise GeometryError("point is not timelike on the upper hyperboloid sheet")
    return p / np.sqrt(q)[..., None]


def on_model(p, sign):
    """Whether each point p lies on the unit model as written, not renormalized.

    <p, p> must be K to within DOMAIN_TOL |p|^2, |p|^2 being its rounding
    scale, and on the hyperboloid p_d must be positive (the upper sheet).
    NaN fails each test, and a point with an infinite entry, or whose
    square overflows, fails the finite |p|^2 test.
    """
    sq = rowsum(p * p)
    pp = sq if sign == SPHERICAL else sq - 2.0 * p[..., -1] ** 2  # <p, p>, one rowsum for both
    ok = (np.abs(pp - sign) <= DOMAIN_TOL * sq) & (sq < np.inf)
    return ok if sign == SPHERICAL else ok & (p[..., -1] > 0.0)


def project_tangent(x, v, sign):
    """Remove the component of v normal to the tangent space at x."""
    c = inner(v, x, sign)
    return v - sign * c[..., None] * x


def distance(x, y, sign):
    """Geodesic distance from the chord x - y.

    2 atan2(|x - y|, |x + y|) on the sphere and 2 asinh(|x - y|_L / 2) on
    the hyperboloid, which resolve distances down to rounding of the
    coordinates; arccos/arccosh of <x, y> lose every distance below about
    sqrt(2 eps) ~ 2e-8.  <x, y> still guards the domain, with the relative
    ``DOMAIN_TOL`` of ``on_model``: on the sphere, where the rounding scale
    of <x, y> is 1, an arccos argument outside [-1, 1] by more than
    DOMAIN_TOL raises.  On the hyperboloid both points must lie on the upper
    sheet, x_d > 0 and y_d > 0 (x_d is the last coordinate), and -<x, y> may
    fall below 1 by DOMAIN_TOL x_d y_d, the rounding scale of <x, y>, and no
    more.  A NaN <x, y>, which a point with a NaN or infinite entry gives
    (the chord of [inf, -inf] to any point is pi/2 on the circle), raises too.

    On the hyperboloid the chord of two model points is spacelike.  One
    whose Minkowski square falls below -``DOMAIN_TOL`` |x - y| (x_d + y_d)
    raises: a point off the model, such as 2 x for x, gives one (x_d is at
    least 1 on the model, and the tolerance covers the rounding of
    coordinates of size x_d).  A square that is NaN, as it is when it
    overflows, gives a NaN distance.
    """
    c = inner(x, y, sign)
    # Each test is written so that NaN fails it.
    if sign == SPHERICAL:
        if not np.all(np.abs(c) <= 1.0 + DOMAIN_TOL):
            raise GeometryError("arccos argument outside [-1, 1] beyond tolerance, or NaN")
        dm, dp = x - y, x + y
        return 2.0 * np.arctan2(np.sqrt(rowsum(dm * dm)), np.sqrt(rowsum(dp * dp)))
    xd, yd = x[..., -1], y[..., -1]
    if not np.all((-c >= 1.0 - DOMAIN_TOL * (xd * yd)) & (xd > 0.0) & (yd > 0.0)):
        raise GeometryError("a point off the upper sheet, or an arccosh argument below 1 beyond tolerance, or NaN")
    dm = x - y
    e2 = rowsum(dm * dm)
    sq = e2 - 2.0 * dm[..., -1] * dm[..., -1]  # inner(dm, dm, sign)
    # The first test, which model pairs pass but for rounding, spares them the second.
    if (sq < 0.0).any() and np.any(sq < -DOMAIN_TOL * np.sqrt(e2) * (xd + yd)):
        raise GeometryError("timelike chord: the points do not both lie on the hyperboloid")
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(sq, 0.0)))


def exp_map(x, v, sign):
    """Exponential map: cos/sin (sphere) or cosh/sinh (hyperboloid) along v; a non-finite |v| raises."""
    t = norm(v, sign)[..., None]
    if not np.isfinite(t).all():
        raise GeometryError("tangent vector norm must be finite")
    safe = np.maximum(t, 1e-300)
    u = v / safe
    if sign == SPHERICAL:
        out = np.cos(t) * x + np.sin(t) * u
    else:
        out = np.cosh(t) * x + np.sinh(t) * u
    out = np.where(t == 0, x, out)
    return project_point(out, sign)


def log_map(x, y, sign):
    """Inverse exponential map; the zero vector when x == y, NaN where y's tangential part has a NaN norm."""
    d = distance(x, y, sign)[..., None]
    u = project_tangent(x, y, sign)
    n = norm(u, sign)[..., None]
    safe = np.maximum(n, 1e-300)
    # 0 n is +0 at n = 0 and NaN at a NaN n, which n > 0 would read as x == y.
    return np.where(n > 0, d * u / safe, 0.0 * n)


class _Frozen:
    """Base of the validating value types: slots set once in ``__init__``.

    Equality, hashing and repr go by the slot values in order, as for a
    frozen dataclass; assigning or deleting an attribute raises, and an
    array slot is made read-only, also when copy or pickle restores it.
    """

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setstate__(self, state):  # copy and pickle restore slots without __init__
        self._init(*(state[1][name] for name in self.__slots__))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CurvatureClass(_Frozen):
    """Curvature sign of the unit model: +1 sphere, -1 hyperbolic."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        if sign not in (SPHERICAL, HYPERBOLIC):
            raise GeometryError("sign must be +1 or -1")
        self._init(sign)

    @classmethod
    def spherical(cls):
        return cls(SPHERICAL)

    @classmethod
    def hyperbolic(cls):
        return cls(HYPERBOLIC)


class AmbientPoint(_Frozen):
    """A manifold point in its embedding; re-projected on construction, coords read-only."""

    __slots__ = ("coords", "space")

    def __init__(self, coords, space):
        c = project_point(coords, space.sign)
        if c.ndim != 1:
            raise GeometryError("AmbientPoint holds a single point")
        self._init(c, space)

    def __eq__(self, other):  # by value: a slot tuple holding an array has no truth value
        if type(other) is not type(self):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.coords, other.coords)

    @property
    def d(self):
        return self.coords.shape[-1] - 1

    def distance_to(self, other):
        return float(distance(self.coords, other.coords, self.space.sign))

    def isclose(self, other, tol=1e-9):
        return self.distance_to(other) <= tol


def pole(d, space):
    """The canonical pole (0, ..., 0, 1)."""
    c = np.zeros(d + 1)
    c[-1] = 1.0
    return AmbientPoint(c, space)


def random_tangent(x, sign, rng, size=None):
    """Unit tangent vector(s) at x, uniform in direction."""
    x = np.asarray(x, dtype=float)
    shape = x.shape if size is None else (size,) + x.shape
    while True:  # a second draw is astronomically unlikely
        v = project_tangent(x, rng.standard_normal(shape), sign)
        n = norm(v, sign)[..., None]
        if not np.any(n < 1e-12):
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
