import copy
import math

import numpy as np
import pytest

from curvopt import AmbientPoint, CurvatureClass, FrechetObjective, GeometryError, pole, with_constants
from curvopt.baselines import RgdParams, RgdRecord, reference_optimum, rgd_run
from curvopt.geomap import make_frame, to_ball
from curvopt.manifolds import exp_map, log_map, norm, random_in_ball
from curvopt.objectives import ManifoldObjective

from instances import frechet_instance


class TestRgdParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(step=0.0, max_iters=10),
            dict(step=-1.0, max_iters=10),
            dict(step=1.0, max_iters=-1),
            dict(step=1.0, max_iters=10, trace_stride=0),
        ],
        ids=["zero-step", "negative-step", "negative-max-iters", "zero-stride"],
    )
    def test_rejects_invalid_settings(self, kwargs):
        with pytest.raises(GeometryError):
            RgdParams(**kwargs)

    def test_accepts_the_edges_and_is_immutable(self):
        params = RgdParams(step=1e-300, max_iters=0, tol_grad=-1.0, trace_stride=1)
        assert (params.step, params.max_iters, params.tol_grad, params.trace_stride) == (1e-300, 0, -1.0, 1)
        with pytest.raises(AttributeError):
            params.step = 2.0
        assert params == RgdParams(1e-300, 0, -1.0, 1)


class TestRgd:
    def test_start_at_minimizer_single_eval(self):
        space = CurvatureClass.hyperbolic()
        center = pole(2, space)
        F = FrechetObjective([center], [1.0], center, 0.5)
        recs = []
        out = rgd_run(F, center, 0.5, RgdParams(step=1.0, max_iters=100, tol_grad=1e-12), trace=recs.append)
        assert recs[-1].grad_evals == 1
        assert out.isclose(center, tol=1e-12)

    def test_single_anchor_convergence(self, space, rng):
        center = pole(2, space)
        a = AmbientPoint(random_in_ball(center.coords, space.sign, 0.4, rng, 1)[0], space)
        F = FrechetObjective([a], [1.0], center, 0.6)
        params = RgdParams(step=1.0 / F.smoothness, max_iters=100000, tol_grad=1e-11)
        out = rgd_run(F, center, 0.6, params)
        assert F.value(out) <= 1e-10

    def test_monotone_descent(self, space):
        center, F = frechet_instance(space, 2, 0.8, 4, seed=21)
        params = RgdParams(step=1.0 / F.smoothness, max_iters=300, tol_grad=0.0)
        recs = []
        rgd_run(F, center, 0.8, params, trace=recs.append)
        values = [r.f_value for r in recs]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_iterates_stay_in_ball(self, space, rng):
        center, F = frechet_instance(space, 2, 0.5, 3, seed=22)
        start = AmbientPoint(
            random_in_ball(center.coords, space.sign, 0.49, rng, 1)[0], space
        )
        # Oversized steps force excursions that must be clipped back to the
        # ball around the start point.
        params = RgdParams(step=3.0 / F.smoothness, max_iters=200, tol_grad=0.0)
        recs = []
        rgd_run(F, start, 0.5, params, trace=recs.append)
        from curvopt.manifolds import distance

        for r in recs:
            assert float(distance(start.coords, r.x, space.sign)) <= 0.5 + 1e-9

    def test_trace_stride(self, space):
        center, F = frechet_instance(space, 2, 0.8, 3, seed=23)
        params = RgdParams(step=1.0 / F.smoothness, max_iters=100, tol_grad=-1.0, trace_stride=10)
        recs = []
        rgd_run(F, center, 0.8, params, trace=recs.append)
        assert [r.k for r in recs] == list(range(0, 101, 10))

    def test_non_finite_gradient_raises(self, space):
        center, F = frechet_instance(space, 2, 0.8, 3, seed=24)

        class Broken(ManifoldObjective):
            """F whose gradient turns NaN from the fourth call on."""

            space = F.space
            calls = 0

            def value_c(self, x):
                return F.value_c(x)

            def grad_c(self, x):
                self.calls += 1
                return F.grad_c(x) * (np.nan if self.calls > 3 else 1.0)

        params = RgdParams(step=1.0 / F.smoothness, max_iters=50, tol_grad=-1.0)
        recs = []
        with pytest.raises(GeometryError, match="iteration 3: .*not finite"):
            rgd_run(Broken(), center, 0.8, params, trace=recs.append)
        assert [r.k for r in recs] == [0, 1, 2]


def _rgd_without_exit(F, x0, R, params, trace):
    """``rgd_run`` as it was before the fixed-point exit: every iteration of the budget runs."""
    sign, center = F.space.sign, x0.coords
    cm = center.copy()
    if sign < 0:
        cm[-1] = -cm[-1]
        rim = -math.cosh(R)
    else:
        rim = math.cos(R)
    step, last, tol, stride = params.step, params.max_iters, params.tol_grad, params.trace_stride
    x = x0.coords
    for k in range(last + 1):
        g = F.grad_c(x)
        sq = float(g.dot(g))
        if sign < 0:
            gl = g.item(-1)
            sq -= 2.0 * gl * gl
        gn = math.sqrt(max(sq, 0.0))
        stop = gn <= tol or k == last
        if stop or k % stride == 0:
            trace(RgdRecord(k, x.copy(), float(F.value_c(x)), gn, k + 1))
        if stop:
            break
        if gn == 0.0:
            continue
        t = step * gn
        if sign < 0:
            x = math.cosh(t) * x - (math.sinh(t) / gn) * g
            xl = x.item(-1)
            x = x / math.sqrt(max(-(float(x.dot(x)) - 2.0 * xl * xl), 1e-300))
        else:
            x = math.cos(t) * x - (math.sin(t) / gn) * g
            x = x / math.sqrt(x.dot(x))
        if x.dot(cm) < rim:
            u = log_map(center, x, sign)
            x = exp_map(center, (R / float(norm(u, sign))) * u, sign)
    return AmbientPoint(x, F.space)


class TestFixedPointExit:
    """Runs that reach an exact fixed point give the records of the full budget."""

    def criterion_4_instance(self):
        # H^2, R = 1, 5 anchors: at step 1/L, x_66 equals x_65 bit for bit.
        space = CurvatureClass.hyperbolic()
        center = pole(2, space)
        rng = np.random.default_rng(20240)
        anchors = [AmbientPoint(c, space) for c in random_in_ball(center.coords, -1, 0.75, rng, 5)]
        w = rng.uniform(0.5, 1.5, 5)
        F = FrechetObjective(anchors, w / w.sum(), center, 1.0, padding=0.75)
        return center, with_constants(F, strong_convexity=0.0)

    def assert_same_run(self, F, x0, R, params):
        calls = []
        counted = copy.copy(F)
        counted.grad_c = lambda x: calls.append(x) or F.grad_c(x)
        got, want = [], []
        out = rgd_run(counted, x0, R, params, trace=got.append)
        ref = _rgd_without_exit(F, x0, R, params, want.append)
        assert out.coords.tobytes() == ref.coords.tobytes()
        assert [r.k for r in got] == [r.k for r in want]
        for a, b in zip(got, want):
            assert (a.k, a.x.tobytes(), a.f_value, a.grad_norm, a.grad_evals) == (
                b.k, b.x.tobytes(), b.f_value, b.grad_norm, b.grad_evals
            )
        assert got[-1].grad_evals == params.max_iters + 1
        assert len(calls) < params.max_iters // 10  # the exit was taken

    @pytest.mark.parametrize("stride", [100, 7, 3000], ids=["divides", "does-not-divide", "budget"])
    def test_fixed_point_in_the_interior(self, stride):
        center, F = self.criterion_4_instance()
        self.assert_same_run(F, center, 1.0, RgdParams(1.0 / F.smoothness, 3000, -1.0, stride))

    def test_start_at_the_minimizer(self, space):
        # One anchor at the start: the gradient is exactly zero.
        center = pole(2, space)
        F = FrechetObjective([center], [1.0], center, 0.5)
        self.assert_same_run(F, center, 0.5, RgdParams(1.0 / F.smoothness, 500, -1.0, 3))

    def test_fixed_point_clipped_to_the_rim(self, space):
        # The one anchor lies outside the R = 0.4 ball: the iterates settle on its rim.
        center = pole(2, space)
        D = 0.9 if space.sign < 0 else 0.7
        a = AmbientPoint(exp_map(center.coords, D * np.array([math.cos(2.0), math.sin(2.0), 0.0]), space.sign), space)
        F = FrechetObjective([a], [1.0], center, D)
        self.assert_same_run(F, center, 0.4, RgdParams(1.0 / F.smoothness, 1000, -1.0, 9))


class TestReferenceOptimum:
    def test_single_anchor_returns_anchor(self, space, rng):
        center = pole(2, space)
        a = AmbientPoint(random_in_ball(center.coords, space.sign, 0.4, rng, 1)[0], space)
        F = FrechetObjective([a], [1.0], center, 0.6)
        x_star, f_star = reference_optimum(F, center, 0.6)
        assert x_star is a
        assert f_star == 0.0

    def test_two_equal_anchors_geodesic_midpoint(self, space, rng):
        from curvopt.manifolds import exp_map, log_map

        center = pole(2, space)
        coords = random_in_ball(center.coords, space.sign, 0.5, rng, 2)
        a, b = AmbientPoint(coords[0], space), AmbientPoint(coords[1], space)
        mid = AmbientPoint(
            exp_map(a.coords, 0.5 * log_map(a.coords, b.coords, space.sign), space.sign), space
        )
        F = FrechetObjective([a, b], [0.5, 0.5], center, 0.8)
        x_star, _ = reference_optimum(F, center, 0.8)
        assert x_star.distance_to(mid) < 1e-6

    def test_matches_grid_search(self):
        # Coarse mapped-ball grid search as a brute-force oracle.
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 0.8, 4, seed=24)
        x_star, f_star = reference_optimum(F, center, 0.8)
        frame = make_frame(center, 0.8)
        g = np.linspace(-frame.R_tilde, frame.R_tilde, 200)
        grid = np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        grid = grid[np.linalg.norm(grid, axis=1) <= frame.R_tilde]
        from curvopt.geomap import from_ball

        values = F.value_c(from_ball(frame, grid))
        best = grid[np.argmin(values)]
        resolution = g[1] - g[0]
        assert np.linalg.norm(to_ball(frame, x_star) - best) <= 2 * resolution
        assert f_star <= np.min(values) + 1e-9

    def test_deterministic(self):
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 0.8, 4, seed=25)
        a1 = reference_optimum(F, center, 0.8)
        a2 = reference_optimum(F, center, 0.8)
        assert np.array_equal(a1[0].coords, a2[0].coords)
        assert a1[1] == a2[1]
