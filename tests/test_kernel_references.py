"""Bitwise checks of the one-point oracle kernels against reference arithmetic.

The library kernels are written to start as few numpy operations as
possible per call: cosine rows, method reductions, Python-float scalars.
The references below keep the plain form of the same formulas (rows with
the metric sign on the last slot, ``np.sum``, ``np.linalg.norm``, numpy
scalars).  Both must agree to the last bit, not to a tolerance.
"""

import math

import numpy as np
import pytest

from curvopt.axgd import mirror_dual_grad
from curvopt.baselines import RgdParams, RgdRecord, rgd_run
from curvopt.geomap import from_ball, make_frame
from curvopt.manifolds import AmbientPoint, distance, exp_map, log_map, norm, random_in_ball
from curvopt.objectives import delta_constants, regularized

from conftest import frechet_instance

DIMS = (2, 5, 10)
SHAPES = [(), (4, 16)]
SHAPE_IDS = ["point", "batch"]


def _ref_terms(x, points, sign, weights=1.0):
    rows = points.copy()
    rows[..., -1] *= sign
    c = x @ rows.T
    if sign < 0:
        theta = np.arccosh(np.maximum(-c, 1.0))
        un = np.sqrt(np.maximum(c * c - 1.0, 1e-300))
    else:
        theta = np.arccos(np.clip(c, -1.0, 1.0))
        un = np.sqrt(np.maximum(1.0 - c * c, 1e-300))
    return c, theta, weights * theta / un


def _ref_frechet(F, x):
    sign = F.space.sign
    c, theta, k = _ref_terms(x, F.anchor_coords, sign, F.weights)
    value = 0.5 * np.sum(F.weights * theta**2, axis=-1)
    grad = -(k @ F.anchor_coords) + sign * np.sum(k * c, axis=-1)[..., None] * x
    return value, grad


def _ref_regularized(G, x):
    sign = G.space.sign
    c, theta, k = _ref_terms(x, G.center.coords, sign)
    value, grad = _ref_frechet(G.inner_obj, x)
    reg = -k[..., None] * (G.center.coords - sign * c[..., None] * x)
    return value + 0.5 * G.mu_i * theta**2, grad + G.mu_i * reg


def _ref_from_ball(frame, xt):
    r2 = np.sum(xt * xt, axis=-1)
    K = float(frame.sign)
    s = 1.0 / np.sqrt(np.maximum(1.0 + K * r2, 1e-300))
    p = np.concatenate([xt, np.ones(xt.shape[:-1] + (1,))], axis=-1) * s[..., None]
    return p @ frame.inv_mat.T


def _ref_mirror_dual_grad(z, R_tilde):
    n = np.linalg.norm(z)
    return z if n <= R_tilde else (R_tilde / n) * z


def _ref_rgd_run(F, x0, R, params, trace):
    sign = F.space.sign
    center = x0.coords
    cos_R = math.cos(R) if sign > 0 else math.cosh(R)
    cm = center.copy()
    if sign < 0:
        cm[-1] = -cm[-1]
    x = x0.coords
    evals = 0
    for k in range(params.max_iters + 1):
        g = F.grad_c(x)
        evals += 1
        sq = g @ g
        if sign < 0:
            sq -= 2.0 * g[-1] * g[-1]
        gn = math.sqrt(max(sq, 0.0))
        trace(RgdRecord(k, x.copy(), float(F.value_c(x)), gn, evals))
        if k == params.max_iters:
            break
        if gn == 0.0:
            continue
        t = params.step * gn
        if sign < 0:
            x = math.cosh(t) * x - (math.sinh(t) / gn) * g
            x = x / math.sqrt(max(-(x @ x - 2.0 * x[-1] * x[-1]), 1e-300))
            outside = x @ cm < -cos_R
        else:
            x = math.cos(t) * x - (math.sin(t) / gn) * g
            x = x / np.linalg.norm(x)
            outside = x @ cm < cos_R
        if outside:
            u = log_map(center, x, sign)
            x = exp_map(center, (R / float(norm(u, sign))) * u, sign)
    return x


def _instance(space, d):
    """Frechet instance with random weights, plus evaluation points.

    The points are drawn in the ball and include every anchor, where the
    cosine sits on the clamp of arccos/arccosh.
    """
    R = 1.0 if space.sign < 0 else 0.6
    rng = np.random.default_rng(100 + d)
    weights = rng.random(6) + 0.1
    center, F = frechet_instance(space, d, R, 6, seed=d, weights=weights / weights.sum())
    pts = random_in_ball(center.coords, space.sign, R, rng, 64 - len(F.anchors))
    return center, F, np.concatenate([F.anchor_coords, pts]), rng


def _points(pts, shape):
    return pts[0].copy() if shape == () else pts.reshape(shape + pts.shape[-1:])


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("d", DIMS)
class TestOracleKernels:
    def _check(self, obj, ref, x):
        value, grad = ref(obj, x)
        assert np.array_equal(obj.value_c(x), value)
        assert np.array_equal(obj.grad_c(x), grad)

    def test_frechet(self, space, d, shape):
        _, F, pts, _ = _instance(space, d)
        self._check(F, _ref_frechet, _points(pts, shape))
        self._check(F, _ref_frechet, _points(pts[::-1], shape))

    def test_regularized(self, space, d, shape):
        center, F, pts, rng = _instance(space, d)
        R = 1.0 if space.sign < 0 else 0.6
        reg_center = AmbientPoint(random_in_ball(center.coords, space.sign, 0.5 * R, rng, 1)[0], space)
        G = regularized(F, 0.37, reg_center, delta_constants(space.sign, space.sign, 2.0 * R))
        self._check(G, _ref_regularized, _points(pts, shape))
        self._check(G, _ref_regularized, _points(pts[::-1], shape))

    def test_from_ball(self, space, d, shape):
        _, F, _, rng = _instance(space, d)
        frame = make_frame(F.anchors[0], 0.5)
        u = rng.standard_normal((64, d))
        u *= (frame.R_tilde * rng.random((64, 1)) ** (1.0 / d)) / np.linalg.norm(u, axis=-1, keepdims=True)
        u[1] = 0.0
        u[2] *= frame.R_tilde / np.linalg.norm(u[2])
        for xt in (_points(u, shape), _points(np.roll(u, -1, 0), shape), _points(np.roll(u, -2, 0), shape)):
            assert np.array_equal(from_ball(frame, xt), _ref_from_ball(frame, xt))


@pytest.mark.parametrize("d", DIMS)
def test_mirror_dual_grad(d):
    rng = np.random.default_rng(d)
    for scale in (0.0, 0.3, 1.0, 2.5, 1e3):
        z = scale * rng.standard_normal(d)
        for R_tilde in (0.5, 1.0, float(np.linalg.norm(z))):
            assert np.array_equal(mirror_dual_grad(z, R_tilde), _ref_mirror_dual_grad(z, R_tilde))


@pytest.mark.parametrize("clipped", [False, True], ids=["inside", "clipped"])
def test_rgd_run_trace(space, clipped):
    """2000 traced iterations at step 0.01 / L, short enough that every one
    moves; the clipped run starts at the anchor farthest from the others, in
    a ball too small to reach the optimum, and ends on its boundary."""
    center, F = frechet_instance(space, 3, 1.0 if space.sign < 0 else 0.6, 5, seed=7)
    params = RgdParams(step=0.01 / F.smoothness, max_iters=2000, tol_grad=-1.0)
    x0, R = center, 1.0
    if clipped:
        x0 = max(F.anchors, key=lambda a: float(distance(a.coords, F.anchor_coords, F.space.sign).sum()))
        R = 0.05
    got, want = [], []
    x = rgd_run(F, x0, R, params, trace=got.append)
    x_ref = _ref_rgd_run(F, x0, R, params, want.append)
    assert len(got) == len(want) == 2001
    for a, b in zip(got, want):
        assert (a.k, a.f_value, a.grad_norm, a.grad_evals) == (b.k, b.f_value, b.grad_norm, b.grad_evals)
        assert np.array_equal(a.x, b.x)
    assert np.array_equal(x.coords, x_ref)
    reach = float(distance(x0.coords, x_ref, F.space.sign))
    if clipped:
        assert reach == pytest.approx(R, abs=1e-9)
    else:
        assert reach < R and all(not np.array_equal(a.x, b.x) for a, b in zip(got, got[1:]))
