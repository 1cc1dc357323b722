import math
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvopt import axgd
from curvopt.axgd import (
    LineSearchError,
    SolverParams,
    SolverState,
    binary_line_search,
    iteration_budget,
    mirror_dual_grad,
    params_from_constants,
)


class Quadratic:
    """Euclidean quadratic on a 1-d ball: the gamma = 1 sanity problem."""

    def __init__(self, curv, target, R_tilde):
        self.curv, self.target, self.R_tilde = curv, np.asarray(target, float), R_tilde

    def value(self, x):
        return float(0.5 * self.curv * np.sum((x - self.target) ** 2))

    def grad(self, x):
        return self.curv * (x - self.target)

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


class Cosine:
    """f(x) = cos(w (x - c)) / 2 on a 1-d ball: not convex, so a search may bisect or fail."""

    def __init__(self, w, c):
        self.w, self.c = w, c

    def value(self, x):
        return float(0.5 * np.cos(self.w * (x[0] - self.c)))

    def grad(self, x):
        return np.array([-0.5 * self.w * np.sin(self.w * (x[0] - self.c))])

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


class ZeroGradient:
    R_tilde = 1.0

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros_like(x)

    def value_and_grad(self, x):
        return self.value(x), self.grad(x)


def quad_params(t=20, eps=1e-6):
    return SolverParams(
        L_tilde=2.0, gamma_n=1.0, gamma_p=1.0, epsilon=eps, t=t, R_tilde=1.0
    )


def first_step(f, p, x0):
    """The state after the forced lambda = 1 step that opens ``axgd.run``."""
    state = SolverState.initial(x0)
    step = p.a(1) / p.gamma_n
    z_ball = mirror_dual_grad(state.z_t, p.R_tilde)
    x_next, _, grad_next, _ = axgd._probe(f.grad, f.value_and_grad, state.x_t, state.z_t, z_ball, step, 1.0, p.R_tilde)
    return SolverState(i=1, x_t=x_next, z_t=state.z_t - step * grad_next, A=p.a(1))


class TestMirrorDualGrad:
    def test_interior_identity(self):
        z = np.array([0.3, -0.2])
        assert np.array_equal(mirror_dual_grad(z, 1.0), z)

    def test_radial_projection(self):
        z = np.array([2.0, 0.0])
        assert np.allclose(mirror_dual_grad(z, 1.0), [1.0, 0.0])

    @given(
        coords=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        R=st.floats(0.1, 2.0),
    )
    @settings(max_examples=200)
    def test_projection_properties(self, coords, R):
        z = np.array(coords)
        p = mirror_dual_grad(z, R)
        assert np.linalg.norm(p) <= R * (1 + 1e-12)
        assert np.allclose(mirror_dual_grad(p, R), p)

    def test_overflowing_norm_still_projects(self):
        # z.z overflows to inf; the projection used to be (1 / inf) z = 0.
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = mirror_dual_grad(np.array([3e200, -4e200]), 1.0)
        assert got.tolist() == pytest.approx([0.6, -0.8], rel=1e-15)

    @pytest.mark.parametrize("z", [[math.inf, 0.0], [-math.inf, 1.0], [math.nan, math.inf]])
    def test_non_finite_point_projects_to_nan(self, z):
        assert np.isnan(mirror_dual_grad(np.array(z), 1.0)).all()

    def test_argmin_against_grid(self):
        # Brute-force oracle: the projection minimizes |z - w| over the ball.
        rng = np.random.default_rng(0)
        grid = np.stack(
            np.meshgrid(np.linspace(-1, 1, 301), np.linspace(-1, 1, 301)), -1
        ).reshape(-1, 2)
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        for _ in range(10):
            z = rng.uniform(-3, 3, 2)
            p = mirror_dual_grad(z, 1.0)
            best = grid[np.argmin(np.linalg.norm(grid - z, axis=1))]
            assert np.linalg.norm(z - p) <= np.linalg.norm(z - best) + 1e-9


class TestSchedule:
    def test_schedule_closed_forms(self):
        p = quad_params()
        for i in range(1, 10):
            assert p.a(i) == pytest.approx(i * p.gamma_n**2 * p.gamma_p / (2 * p.L_tilde))
            assert p.A(i) == pytest.approx(sum(p.a(j) for j in range(1, i + 1)), rel=1e-12)

    @given(
        L=st.floats(0.5, 500.0),
        gn=st.floats(0.01, 1.0),
        gp=st.floats(0.01, 1.0),
        i=st.integers(0, 10_000),
    )
    @settings(max_examples=300)
    def test_rate_hypothesis_inequality(self, L, gn, gp, i):
        # L~ a_{i+1}^2 / gamma_n <= a_{i+1} + A_i gamma_n gamma_p
        p = SolverParams(L_tilde=L, gamma_n=gn, gamma_p=gp, epsilon=1.0, t=2, R_tilde=1.0)
        a_next = p.a(i + 1)
        lhs = L * a_next**2 / gn
        rhs = a_next + p.A(i) * gn * gp
        assert lhs <= rhs * (1 + 1e-12)

    @staticmethod
    def certificate(L, gn, gp, eps, D, t):
        """The gap bound after t steps: 2 L~ D^2 / (gn^2 gp t (t + 1)) + sum_{i<t} A_i eps_hat_i / A_t."""
        p = SolverParams(L_tilde=L, gamma_n=gn, gamma_p=gp, epsilon=eps, t=t, R_tilde=1.0)
        i = np.arange(1, t, dtype=float)
        slack = math.fsum(p.A(i) * p.eps_hat(i) / p.A(t)) if t > 1 else 0.0
        return 2 * L * D**2 / (gn**2 * gp * t * (t + 1)) + slack

    @given(
        L=st.floats(0.5, 50.0),
        gn=st.floats(0.1, 1.0),
        gp=st.floats(0.1, 1.0),
        eps=st.floats(1e-5, 1e-1),
        D=st.floats(0.05, 2.0),
    )
    @settings(max_examples=200)
    def test_budget_and_slacks_certify_epsilon(self, L, gn, gp, eps, D):
        # The discretization term and the line-search slacks together stay
        # within epsilon at t = iteration_budget, and one step fewer does not
        # certify with the same split of epsilon.
        t = iteration_budget(L, gn, gp, eps, D)
        assert self.certificate(L, gn, gp, eps, D, t) <= eps * (1 + 1e-12)
        if t > 2:
            assert self.certificate(L, gn, gp, eps, D, t - 1) > eps * (1 - 1e-12)

    def test_budget_formula(self):
        # R~ = 0.8: D = R~ bounds a start at the centre, 2 R~ any start in the
        # ball.  The least t with t (t + 1) >= q makes the rate term
        # 2 L~ D^2 / (gamma_n^2 gamma_p t (t + 1)) at most 7 epsilon / 8.
        for D, expected in ((0.8, 1082), (1.6, 2164)):
            q = 16 * 10.0 * D**2 / (7 * 0.25 * 0.5 * 1e-4)
            t = iteration_budget(10.0, 0.5, 0.5, 1e-4, D)
            assert t * (t + 1) >= q > (t - 1) * t
            assert 2 * 10.0 * D**2 / (0.25 * 0.5 * t * (t + 1)) <= 7 * 1e-4 / 8
            assert t == expected

    @given(k=st.integers(1, axgd.MAX_ITERATIONS - 1), step=st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300)
    def test_budget_is_the_least_certifying_t(self, k, step):
        # Around q = k (k + 1) the float root can round to a t one too small.
        q = float(k * (k + 1))
        q = math.nextafter(q, math.inf) if step > 0 else math.nextafter(q, 0.0) if step < 0 else q
        t = axgd.least_budget(q)
        assert t * (t + 1) >= q > (t - 1) * t

    def test_budget_settles_a_root_that_rounds_down(self):
        k = 18034064
        q = math.nextafter(float(k * (k + 1)), math.inf)
        assert math.ceil(math.sqrt(q + 0.25) - 0.5) == k  # one too small
        assert axgd.least_budget(q) == k + 1

    def test_budget_cap(self):
        cap = axgd.MAX_ITERATIONS
        q = float(cap * (cap + 1))
        assert axgd.least_budget(q) == cap
        with pytest.raises(axgd.BudgetError, match="exceeds 1e[+]08"):
            axgd.least_budget(math.nextafter(q, math.inf))
        with pytest.raises(axgd.BudgetError, match="exceeds 1e[+]08"):
            iteration_budget(1e300, 1.0, 1.0, 1e-300, 1.0)  # q overflows to inf

    @pytest.mark.parametrize("D", [0.0, -1.0, math.nan, math.inf])
    def test_budget_refuses_a_distance_bound_that_is_not_finite_and_positive(self, D):
        with pytest.raises(ValueError, match="D = "):
            iteration_budget(10.0, 0.5, 0.5, 1e-4, D)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_budget_refuses_an_epsilon_that_is_not_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon = ") as info:
            iteration_budget(10.0, 0.5, 0.5, epsilon, 1.0)
        assert not isinstance(info.value, axgd.BudgetError)

    @pytest.mark.parametrize("L_tilde", [10.0, 5e-324])
    def test_budget_refuses_a_denominator_that_underflows(self, L_tilde):
        # gamma_n^2 gamma_p epsilon = 0.125 * 5e-324 rounds to 0: q is
        # infinite, also when its numerator is subnormal, not a division by 0.
        with pytest.raises(axgd.BudgetError, match="t = inf"):
            iteration_budget(L_tilde, 0.5, 0.5, 5e-324, 1.0)

    def test_params_default_to_the_centre_start(self):
        dc = SimpleNamespace(L_tilde=10.0, gamma_n=0.5, gamma_p=0.5)
        assert params_from_constants(dc, 0.8, 1e-4).t == iteration_budget(10.0, 0.5, 0.5, 1e-4, 0.8)
        assert params_from_constants(dc, 0.8, 1e-4, 1.6).t == iteration_budget(10.0, 0.5, 0.5, 1e-4, 1.6)

    @pytest.mark.parametrize("field", ["L_tilde", "epsilon", "R_tilde"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_params_refuse_a_constant_that_is_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            replace(quad_params(), **{field: value})


class TestStep:
    def test_first_step_is_projected_mirror_step(self):
        # The forced lambda = 1 step that opens a longer run is the projected
        # mirror step and costs two gradient evaluations.
        f = Quadratic(2.0, [0.5], 1.0)
        p = quad_params(t=5)
        x0 = np.array([-0.3])
        recs = []
        axgd.run(f, p, x0, trace=recs.append)
        a1 = p.a(1)
        expected = mirror_dual_grad(x0 - (a1 / p.gamma_n) * f.grad(x0), p.R_tilde)
        first = recs[0]
        assert np.allclose(first.x, expected, atol=1e-15)
        assert (first.i, first.lam, first.grad_evals) == (1, 1.0, 2)

    def test_run_t1_single_mirror_step(self):
        f = Quadratic(2.0, [0.5], 1.0)
        p = quad_params(t=1)
        x0 = np.array([-0.3])
        recs = []
        out = axgd.run(f, p, x0, trace=recs.append)
        a1 = p.a(1)
        expected = mirror_dual_grad(x0 - (a1 / p.gamma_n) * f.grad(x0), p.R_tilde)
        assert np.allclose(out, expected, atol=1e-15)
        [rec] = recs
        assert (rec.i, rec.lam, rec.probes, rec.grad_evals) == (1, 1.0, 1, 2)
        assert math.isnan(rec.gamma_hat) and math.isnan(rec.eps_hat) and math.isnan(rec.residual)
        assert np.array_equal(rec.x, out) and np.array_equal(rec.x_prev, x0)
        assert rec.f_value == f.value(out)

    def test_zero_gradient_fixed_point(self):
        f = ZeroGradient()
        p = quad_params(t=8)
        x0 = np.array([0.4, -0.1])
        recs = []
        out = axgd.run(f, p, x0, trace=recs.append)
        assert np.allclose(out, x0, atol=1e-15)
        assert all(np.allclose(r.x, x0) for r in recs)
        assert all(r.probes == 1 for r in recs[1:])

    def test_matches_hand_stepped_reference(self):
        # Independent scalar recursion of the discretization with
        # gamma_hat = 1 (valid for convex f), ten steps, bit-level match.
        f = Quadratic(1.7, [0.4], 1.0)
        p = SolverParams(
            L_tilde=1.7, gamma_n=1.0, gamma_p=1.0, epsilon=1e-9, t=10, R_tilde=1.0
        )
        x0 = np.array([-0.8])

        def proj(z):
            n = abs(float(z[0]))
            return z if n <= 1.0 else z / n

        # reference: x_{i+1} = (1-lam) x_i + lam proj(z_i - a grad f(chi));
        # lam = a_{i+1} / A_{i+1} at gamma_hat = 1.
        xs = [x0.copy()]
        x, z, A = x0.copy(), x0.copy(), 0.0
        for i in range(10):
            a = (i + 1) / (2 * 1.7)
            lam = 1.0 if i == 0 else a / (A + a)
            chi = (1 - lam) * x + lam * proj(z)
            zeta = z - a * f.grad(chi)
            x = (1 - lam) * x + lam * proj(zeta)
            z = z - a * f.grad(x)
            A += a
            xs.append(x.copy())

        recs = []
        out = axgd.run(f, p, x0, trace=recs.append)
        for rec, ref in zip(recs, xs[1:]):
            assert abs(rec.x[0] - ref[0]) < 1e-12
        assert abs(out[0] - xs[-1][0]) < 1e-12


class TestLineSearch:
    def test_convex_endpoint_succeeds_first_probe(self):
        f = Quadratic(2.0, [0.5], 1.0)
        p = quad_params(t=20)
        state = first_step(f, p, np.array([-0.6]))
        res = binary_line_search(state, p, f, p.eps_hat(1), f.value(state.x_t))
        assert res.probes == 1
        assert res.gamma_hat == pytest.approx(1.0)
        assert res.residual <= p.eps_hat(1)

    def test_gamma_hat_lambda_consistency(self):
        f = Quadratic(2.0, [0.5], 1.0)
        p = quad_params(t=20)
        state = first_step(f, p, np.array([-0.6]))
        res = binary_line_search(state, p, f, p.eps_hat(1), f.value(state.x_t))
        step = p.a(state.i + 1) / p.gamma_n
        lam_back = step / (state.A * res.gamma_hat + step)
        assert res.lam == pytest.approx(lam_back, rel=1e-12)

    def test_requires_started_state(self):
        f = Quadratic(2.0, [0.5], 1.0)
        p = quad_params()
        state = SolverState.initial(np.array([0.0]))
        with pytest.raises(ValueError):
            binary_line_search(state, p, f, 1e-3, f.value(state.x_t))

    def test_violated_assumptions_are_diagnosable(self):
        # An oscillatory objective with a wildly understated smoothness
        # constant cannot satisfy the accepted-step inequality; the search
        # must fail with diagnostic context instead of looping.
        class Wiggle:
            R_tilde = 1.0

            def value(self, x):
                return float(0.5 * np.cos(13.0 * (x[0] - 0.3)))

            def grad(self, x):
                return np.array([-6.5 * np.sin(13.0 * (x[0] - 0.3))])

            def value_and_grad(self, x):
                return self.value(x), self.grad(x)

        p = SolverParams(
            L_tilde=0.1, gamma_n=0.4, gamma_p=0.3, epsilon=1e-12, t=50, R_tilde=1.0
        )
        state = SolverState(i=1, x_t=np.array([-0.5]), z_t=np.array([0.9]), A=p.a(1))
        f = Wiggle()
        with pytest.raises(LineSearchError) as err:
            binary_line_search(state, p, f, 1e-16, f.value(state.x_t))
        assert err.value.iteration == 1
        assert err.value.bracket is not None

    @staticmethod
    def probed_lambdas(monkeypatch):
        lams, probe = [], axgd._probe
        monkeypatch.setattr(axgd, "_probe", lambda *args: lams.append(args[6]) or probe(*args))
        return lams

    def test_bisection_moves_both_bracket_ends(self, monkeypatch):
        # Both endpoints fail; the midpoints then move the left end, then the
        # right one, and the third midpoint is accepted.
        from test_kernel_references import _ref_line_search

        f, p = Cosine(3.0, -0.5), SolverParams(0.5, 0.5, 0.5, 1e-6, 50, 1.0)
        state = SolverState(i=2, x_t=np.array([0.0]), z_t=np.array([-0.5]), A=p.A(2))
        lams = self.probed_lambdas(monkeypatch)
        res = binary_line_search(state, p, f, 1e-3, f.value(state.x_t))
        mids = lams[2:]
        assert res.probes == len(lams) == 5 and mids[1] > mids[0] and mids[2] < mids[1]
        *want, (x_next, grad_next, _, f_next, _) = _ref_line_search(
            2, state.x_t, state.z_t, p.A(2), p, f, 1e-3, f.value(state.x_t)
        )
        assert [res.lam, res.gamma_hat, res.residual, res.probes] == want
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(
            (res.x_next, res.grad_next, res.f_next), (x_next, grad_next, f_next)
        ))

    @pytest.mark.parametrize("eps_hat", [1e-3, 1e-12, 1e-300, 1e-320, 5e-324])
    def test_collapsed_bracket_ends_the_search(self, monkeypatch, eps_hat):
        # The endpoints bracket a sign change of <grad f, x_next - x_t>, but the
        # step overshoots there: the residual stays near 0.9 and the bracket
        # shrinks to two adjacent floats after 52 probes, whatever the slack.
        f, p = Cosine(5.0, 0.0), SolverParams(0.5, 0.5, 0.5, 1e-6, 50, 1.0)
        state = SolverState(i=1, x_t=np.array([-0.5]), z_t=np.array([1.0]), A=p.A(1))
        lams = self.probed_lambdas(monkeypatch)
        with pytest.raises(LineSearchError, match="iteration 1: the line-search bracket collapsed") as err:
            binary_line_search(state, p, f, eps_hat, f.value(state.x_t))
        assert len(lams) == len(set(lams)) == 52
        left, right = err.value.bracket
        assert right == np.nextafter(left, 1.0) and lams[-1] in (left, right)
        assert err.value.residual > 0.9 and err.value.iteration == 1

    @pytest.mark.parametrize("eps_hat", [math.nan, 0.0, -1e-3])
    def test_refuses_a_slack_that_is_not_positive(self, eps_hat):
        # A NaN slack used to fail every residual test and end in
        # ValueError('cannot convert float NaN to integer') from the probe cap.
        f, p = Cosine(5.0, 0.0), SolverParams(0.5, 0.5, 0.5, 1e-6, 50, 1.0)
        state = SolverState(i=1, x_t=np.array([-0.5]), z_t=np.array([1.0]), A=p.A(1))
        with pytest.raises(ValueError, match=re.escape(f"iteration 1: eps_hat must be positive, got {eps_hat!r}")):
            binary_line_search(state, p, f, eps_hat, f.value(state.x_t))

    @pytest.mark.parametrize("sign,R", [(-1, 1.0), (1, 1.1)])
    def test_accepted_step_inequality_recheck(self, sign, R):
        # On curved instances: every accepted iterate satisfies the
        # residual condition with its own gamma_hat and eps_hat, and the
        # accepted gamma_hat stays inside [gamma_p, 1/gamma_n].
        from instances import frechet_instance
        from curvopt import CurvatureClass, MappedObjective, make_frame
        from curvopt.geomap import deformation_constants

        space = (
            CurvatureClass.hyperbolic() if sign < 0 else CurvatureClass.spherical()
        )
        center, F = frechet_instance(space, 2, R, 4, seed=3)
        frame = make_frame(center, R)
        dc = deformation_constants(frame, F.smoothness)
        p = params_from_constants(dc, frame.R_tilde, 1e-2)
        fmap = MappedObjective(F, frame)
        recs = []
        axgd.run(fmap, p, np.zeros(2), trace=recs.append)
        f_prev = None
        for rec in recs:
            if rec.i >= 2:
                inner = float(fmap.grad(rec.x) @ (rec.x - rec.x_prev))
                lhs = rec.f_value - f_prev
                assert lhs <= rec.gamma_hat * inner + rec.eps_hat * (1 + 1e-12)
                assert dc.gamma_p <= rec.gamma_hat <= 1 / dc.gamma_n + 1e-12
            f_prev = rec.f_value

    def test_probe_counts_within_bound(self):
        from instances import frechet_instance
        from curvopt import CurvatureClass, MappedObjective, make_frame
        from curvopt.geomap import deformation_constants

        space = CurvatureClass.spherical()
        center, F = frechet_instance(space, 2, 1.1, 4, seed=4)
        frame = make_frame(center, 1.1)
        dc = deformation_constants(frame, F.smoothness)
        p = params_from_constants(dc, frame.R_tilde, 1e-2)
        recs = []
        axgd.run(MappedObjective(F, frame), p, np.zeros(2), trace=recs.append)
        for rec in recs[1:]:
            arg = p.L_tilde * p.R_tilde * (rec.i - 1) / (p.gamma_n * rec.eps_hat)
            assert rec.probes <= 4.0 * math.log2(arg) + 4.0


class Faulty:
    """A 1-d oracle whose value or gradient is NaN or +-inf at chosen calls (counted from 1)."""

    def __init__(self, base, faults):
        self.base, self.faults, self.calls = base, faults, 0

    def _call(self, x):
        self.calls += 1
        with np.errstate(all="ignore"):  # the base oracle's own arithmetic on a non-finite x
            value, grad = self.base.value_and_grad(x)
        kind, bad = self.faults.get(self.calls, (None, None))
        return (bad if kind == "value" else value), (np.array([bad]) if kind == "grad" else grad)

    def grad(self, x):
        return self._call(x)[1]

    def value_and_grad(self, x):
        return self._call(x)


NON_FINITE = [math.nan, math.inf, -math.inf]
BASES = [Cosine(5.0, 0.0), Quadratic(2.0, [0.3], 1.0), Cosine(3.0, -0.5)]
coordinates = st.sampled_from([0.0, *NON_FINITE]) | st.floats(-1.5, 1.5)
faults = st.dictionaries(
    st.integers(1, 60), st.tuples(st.sampled_from(["value", "grad"]), st.sampled_from(NON_FINITE)), max_size=3
)


class TestNonFiniteInputs:
    """Property 2 of the line search and the solver: each call raises, or passes the step test, within 1100 probes.

    numpy warns where the solver multiplies an infinite gradient by 0 or
    subtracts infinities.  The test suite turns those warnings into errors;
    here they are ignored, so that each call runs on to one of its exits as
    it does outside the suite.
    """

    PARAMS = SolverParams(0.5, 0.5, 0.5, 1e-3, 6, 1.0)

    @staticmethod
    def counted_searches(mp):
        """Probes of each search, counted by a spy on ``_probe``; entry 0 counts the probes outside any."""
        counts, probe, search = [0], axgd._probe, axgd.binary_line_search

        def counted(*args):
            counts[-1] += 1
            return probe(*args)

        def searched(*args):
            counts.append(0)
            return search(*args)

        mp.setattr(axgd, "_probe", counted)
        mp.setattr(axgd, "binary_line_search", searched)
        return counts

    def test_an_infinite_residual_never_passes(self):
        # f = -inf at the first candidate gives the residual -inf <= eps_hat; the
        # search took that step after 1 probe, and now takes the other endpoint.
        p, f = self.PARAMS, Faulty(Quadratic(2.0, [0.3], 1.0), {2: ("value", -math.inf)})
        state = SolverState(i=1, x_t=np.array([0.0]), z_t=np.array([0.0]), A=p.A(1))
        res = axgd.binary_line_search(state, p, f, p.eps_hat(1), f.base.value(state.x_t))
        assert (res.probes, res.gamma_hat) == (2, p.gamma_p) and -math.inf < res.residual <= p.eps_hat(1)

    # Some draws start from the Cosine(5, 0) searches that collapse their bracket at i = 1, 2 and 4.
    @given(base=st.sampled_from(BASES), faults=faults, i=st.integers(1, 5),
           xz=st.sampled_from([(-0.5, 1.0), (0.5, -1.0)]) | st.tuples(coordinates, coordinates),
           eps_hat=st.sampled_from([5e-324, 1e-320, 1e-300, 1e3]) | st.floats(5e-324, 1e3))
    @settings(max_examples=150)
    def test_line_search_raises_or_passes(self, base, faults, i, xz, eps_hat):
        p, f = self.PARAMS, Faulty(base, faults)
        state = SolverState(i=i, x_t=np.array([xz[0]]), z_t=np.array([xz[1]]), A=p.A(i))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            counts = self.counted_searches(mp)
            try:
                res = axgd.binary_line_search(state, p, f, eps_hat, f.value_and_grad(state.x_t)[0])
            except (LineSearchError, ValueError):
                res = None
        assert counts[0] == 0 and counts[1] <= 1100
        if res is not None:
            assert res.probes == counts[1] and -math.inf < res.residual <= eps_hat

    @given(base=st.sampled_from(BASES), faults=faults, x0=coordinates, t=st.integers(1, 6))
    @settings(max_examples=100)
    def test_run_raises_or_passes(self, base, faults, x0, t):
        p, f, recs = replace(self.PARAMS, t=t), Faulty(base, faults), []
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            counts = self.counted_searches(mp)
            try:
                axgd.run(f, p, np.array([x0]), trace=recs.append)
            except (LineSearchError, ValueError):
                pass
        assert counts[0] <= 1 and max(counts[1:], default=0) <= 1100
        assert [rec.probes for rec in recs[1:]] == counts[1:len(recs)]
        assert all(-math.inf < rec.residual <= rec.eps_hat for rec in recs[1:])


class TestRunInvariants:
    def test_feasibility_and_budget(self):
        from instances import frechet_instance
        from curvopt import CurvatureClass, MappedObjective, make_frame
        from curvopt.geomap import deformation_constants

        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 5, seed=5)
        frame = make_frame(center, 1.0)
        dc = deformation_constants(frame, F.smoothness)
        p = params_from_constants(dc, frame.R_tilde, 1e-2)
        recs = []
        axgd.run(MappedObjective(F, frame), p, np.zeros(2), trace=recs.append)
        assert max(np.linalg.norm(r.x) for r in recs) <= frame.R_tilde + 1e-12
        assert recs[-1].grad_evals == sum(2 * r.probes for r in recs)

    def test_determinism(self):
        from instances import frechet_instance
        from curvopt import CurvatureClass, MappedObjective, make_frame
        from curvopt.geomap import deformation_constants

        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 5, seed=6)
        frame = make_frame(center, 1.0)
        dc = deformation_constants(frame, F.smoothness)
        p = params_from_constants(dc, frame.R_tilde, 1e-2)

        def trajectory():
            recs = []
            axgd.run(MappedObjective(F, frame), p, np.zeros(2), trace=recs.append)
            return recs

        a, b = trajectory(), trajectory()
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.x, rb.x)
            assert ra.f_value == rb.f_value
            assert ra.lam == rb.lam

    def test_infeasible_start_rejected(self):
        f = Quadratic(2.0, [0.0], 1.0)
        with pytest.raises(ValueError):
            axgd.run(f, quad_params(), np.array([2.0]))

    def test_nan_start_rejected(self):
        f = Quadratic(2.0, [0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="start point lies outside the feasible ball"):
            axgd.run(f, quad_params(), np.array([math.nan, 0.0]))

    @pytest.mark.parametrize("sign,R", [(-1, 1.0), (1, 1.1)])
    def test_convergence_bound_at_every_budget(self, sign, R):
        # The schedule guarantee must hold for any iteration count t, with
        # the start-to-optimum distance measured in the ball:
        # f(x_t) - f* <= 2 L~ |x0~ - x*~|^2 / (gn^2 gp t (t+1)) + eps/8.
        from instances import frechet_instance
        from curvopt import CurvatureClass, MappedObjective, make_frame, to_ball
        from curvopt.baselines import reference_optimum
        from curvopt.geomap import deformation_constants

        space = (
            CurvatureClass.hyperbolic() if sign < 0 else CurvatureClass.spherical()
        )
        center, F = frechet_instance(space, 2, R, 4, seed=8)
        x_star, f_star = reference_optimum(F, center, R)
        frame = make_frame(center, R)
        dc = deformation_constants(frame, F.smoothness)
        fmap = MappedObjective(F, frame)
        # start at the ball edge, opposite the optimum
        xt_star = to_ball(frame, x_star)
        direction = -xt_star / np.linalg.norm(xt_star)
        x0 = 0.95 * frame.R_tilde * direction
        dist0_sq = float(np.sum((x0 - xt_star) ** 2))
        eps = 1e-3
        for t in (1, 3, 10, 30, 100, 300):
            params = replace(params_from_constants(dc, frame.R_tilde, eps), t=t)
            out = axgd.run(fmap, params, x0)
            gap = fmap.value(out) - f_star
            bound = (
                2 * dc.L_tilde * dist0_sq / (dc.gamma_n**2 * dc.gamma_p * t * (t + 1))
                + eps / 8
            )
            assert gap <= bound * (1 + 1e-9), (t, gap, bound)
