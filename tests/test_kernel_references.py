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

from curvopt import axgd
from curvopt.axgd import SolverParams, mirror_dual_grad, params_from_constants
from curvopt.baselines import RgdParams, RgdRecord, rgd_run
from curvopt.geomap import deformation_constants, from_ball, make_frame
from curvopt.manifolds import AmbientPoint, CurvatureClass, distance, exp_map, log_map, norm, random_in_ball
from curvopt.objectives import MappedObjective, RegularizedObjective, delta_constants

from instances import frechet_instance

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


def _ref_reflection(x0):
    """Sign flip s, reflection vector w and a = 2 G w / <w, w> of the frame at x0.

    w = x0 + f with f = e, or f = -e on the sphere below the equator, and
    <w, w> / 2 = K (1 + |c|), c = x0[d].
    """
    sign = x0.space.sign
    x = x0.coords
    s, f, g = np.ones(len(x)), np.zeros(len(x)), np.ones(len(x))
    if sign > 0 and x[-1] < 0:
        s[0], f[-1] = -1.0, -1.0
    else:
        s[-1], f[-1] = -1.0, 1.0
    g[-1] = sign
    w = x + f
    return s, w, g * w / (sign * (1.0 + abs(x[-1])))


def _ref_from_ball(frame, xt):
    r2 = np.sum(xt * xt, axis=-1)
    K = float(frame.sign)
    s = 1.0 / np.sqrt(np.maximum(1.0 + K * r2, 1e-300))
    p = np.concatenate([xt, np.ones(xt.shape[:-1] + (1,))], axis=-1) * s[..., None]
    flip, w, a = _ref_reflection(frame.x0)
    q = flip * p
    return q - (q @ a)[..., None] * w


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


def _instance(space, d, anchors=6):
    """Frechet instance with random weights, plus evaluation points.

    The points are drawn in the ball and include every anchor, where the
    cosine sits on the clamp of arccos/arccosh.
    """
    R = 1.0 if space.sign < 0 else 0.6
    rng = np.random.default_rng(100 + d)
    weights = rng.random(anchors) + 0.1
    center, F = frechet_instance(space, d, R, anchors, seed=d, weights=weights / weights.sum())
    pts = random_in_ball(center.coords, space.sign, R, rng, 64 - len(F.anchors))
    return center, F, np.concatenate([F.anchor_coords, pts]), rng


def _points(pts, shape):
    return pts[0].copy() if shape == () else pts.reshape(shape + pts.shape[-1:])


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("d", DIMS)
class TestOracleKernels:
    def _check(self, obj, ref, x):
        # The kernels read x C-contiguous, so their bits are those of the reference on that copy.
        value, grad = ref(obj, np.ascontiguousarray(x))
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
        G = RegularizedObjective(F, 0.37, reg_center, delta_constants(space.sign, space.sign, 2.0 * R))
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


@pytest.mark.parametrize(
    "d, anchors, shape",
    [(2, 1, (4, 16)), (30, 6, (4, 16)), (10, 20, ()), (10, 20, (4, 16))],
    ids=["one-anchor-batch", "d30-batch", "reduce-s10-point", "reduce-s10-batch"],
)
def test_oracle_kernel_shapes(space, d, anchors, shape):
    """Shapes beyond DIMS: one anchor with a 3-D batch and d = 30, where a
    batched ``.dot`` sums in another order than ``@``, and the reduce-s10
    shape, 20 anchors at d = 10."""
    center, F, pts, rng = _instance(space, d, anchors)
    R = 1.0 if space.sign < 0 else 0.6
    reg_center = AmbientPoint(random_in_ball(center.coords, space.sign, 0.5 * R, rng, 1)[0], space)
    G = RegularizedObjective(F, 0.37, reg_center, delta_constants(space.sign, space.sign, 2.0 * R))
    for obj, ref in ((F, _ref_frechet), (G, _ref_regularized)):
        for x in (_points(pts, shape), _points(pts[::-1], shape)):
            TestOracleKernels()._check(obj, ref, x)


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


class _RefMapped:
    """Plain form of the one-point closed-form oracle of ``MappedObjective``
    on a Frechet objective, built from its anchors and the frame."""

    def __init__(self, F, frame):
        rows = F.anchor_coords.copy()
        rows[:, :-1] *= frame.sign
        # rows M^{-1} = (G M G rows^T)^T, M v = s (v - (v . a) w)
        flip, w, a = _ref_reflection(frame.x0)
        g = np.ones(rows.shape[1])
        g[-1] = frame.sign
        v = rows * g
        rows = g * (flip * (v - (v @ a)[:, None] * w))
        self.weights = F.weights
        self.BT = rows[:, :-1].T.copy()  # its layout sets the summation order of xt @ BT
        self.b = rows[:, -1].copy()
        self.KB = frame.sign * rows[:, :-1]
        self.sign = frame.sign

    def value_and_grad(self, xt):
        s = 1.0 / math.sqrt(max(1.0 + self.sign * float(xt @ xt), 1e-300))
        c = s * (xt @ self.BT + self.b)
        if self.sign < 0:
            theta = np.arccosh(np.maximum(c, 1.0))
            un = np.sqrt(np.maximum(c * c - 1.0, 1e-300))
        else:
            theta = np.arccos(np.clip(c, -1.0, 1.0))
            un = np.sqrt(np.maximum(1.0 - c * c, 1e-300))
        k = self.weights * theta / un
        grad = (s * s * float(k @ c)) * xt - s * (k @ self.KB)
        return float(0.5 * np.sum(self.weights * theta**2)), grad

    def grad(self, xt):
        return self.value_and_grad(xt)[1]


def _ref_candidate(x, z, a_next, gamma_n, R_tilde, f, lam):
    step = a_next / gamma_n
    chi = (1.0 - lam) * x + lam * _ref_mirror_dual_grad(z, R_tilde)
    zeta = z - step * f.grad(chi)
    x_next = (1.0 - lam) * x + lam * _ref_mirror_dual_grad(zeta, R_tilde)
    f_next, grad_next = f.value_and_grad(x_next)
    return x_next, grad_next, z - step * grad_next, f_next, float(grad_next @ (x_next - x))


def _ref_line_search(i, x, z, A, p, f, eps_hat, f_curr):
    """(lam, gamma_hat, residual, probes, candidate) of the binary line search."""
    a_next = p.a(i + 1)
    step = a_next / p.gamma_n
    probes = 0

    def probe(lam):
        nonlocal probes
        probes += 1
        cand = _ref_candidate(x, z, a_next, p.gamma_n, p.R_tilde, f, lam)
        return cand, -(step * (1.0 - lam) / (A * lam)) * cand[4] + (cand[3] - f_curr)

    lo = step / (A * (1.0 / p.gamma_n) + step)
    hi = step / (A * p.gamma_p + step)
    cand, residual = probe(lo)
    if residual <= eps_hat:
        return lo, 1.0 / p.gamma_n, residual, probes, cand
    cand, residual = probe(hi)
    if residual <= eps_hat:
        return hi, p.gamma_p, residual, probes, cand
    left, right = lo, hi
    while left < 0.5 * (left + right) < right:
        lam = 0.5 * (left + right)
        cand, residual = probe(lam)
        if residual <= eps_hat:
            return lam, step * (1.0 - lam) / (A * lam), residual, probes, cand
        if cand[4] < 0:
            left = lam
        else:
            right = lam
    raise AssertionError("reference line search found no accepted step")


def _ref_axgd_run(f, p, x0):
    """The records of ``axgd.run`` as tuples of its 11 IterationRecord fields."""
    x, z, A, evals, records = x0.copy(), x0.copy(), 0.0, 0, []
    for i in range(p.t):
        if i == 0:
            lam, gamma_hat, residual, probes, eps_hat = 1.0, math.nan, math.nan, 1, math.nan
            cand = _ref_candidate(x, z, p.a(1), p.gamma_n, p.R_tilde, f, 1.0)
        else:
            eps_hat = p.eps_hat(i)
            lam, gamma_hat, residual, probes, cand = _ref_line_search(i, x, z, A, p, f, eps_hat, f_curr)
        x_next, grad_next, z, f_curr, _ = cand
        A += p.a(i + 1)
        evals += 2 * probes
        grad_norm = math.sqrt(grad_next @ grad_next)
        records.append((i + 1, x_next.copy(), x.copy(), f_curr, grad_norm, evals, lam, gamma_hat, eps_hat, residual, probes))
        x = x_next
    return records


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["hyperbolic-2", "spherical-5", "bisecting"])
def test_axgd_run_trace(case):
    """Every field of every ``axgd.run`` record, against the reference solver and oracle.

    The first two cases are certified runs on H^2 (R = 1) and S^5 (R = 0.6),
    where nearly every search accepts its first probe.  The third declares a
    smoothness ten times too small with gammas (0.5, 0.2) on H^2: its
    searches bisect, and its mirror steps leave the ball and are projected.
    """
    hyperbolic = case != "spherical-5"
    space = CurvatureClass.hyperbolic() if hyperbolic else CurvatureClass.spherical()
    d, R, anchors, seed = (2, 1.0, 5, 20240) if hyperbolic else (5, 0.6, 8, 3)
    center, F = frechet_instance(space, d, R, anchors, seed=seed)
    frame = make_frame(center, R)
    p = params_from_constants(deformation_constants(frame, F.smoothness), frame.R_tilde, 1e-3)
    if case == "bisecting":
        p = SolverParams(0.1 * F.smoothness, 0.5, 0.2, 1e-6, 100, frame.R_tilde)
    got = []
    out = axgd.run(MappedObjective(F, frame), p, np.zeros(d), trace=got.append)
    want = _ref_axgd_run(_RefMapped(F, frame), p, np.zeros(d))
    assert len(got) == len(want) == p.t
    for rec, ref in zip(got, want):
        assert len(rec) == len(ref) == 11
        assert all(_same_bits(a, b) for a, b in zip(rec, ref)), rec.i
    assert _same_bits(out, want[-1][1])
    if case == "bisecting":
        assert max(r.probes for r in got) >= 3
