import math

import numpy as np
import pytest

from curvopt import AmbientPoint, CurvatureClass, GeometryError, axgd, checks, pole, with_constants
from curvopt.baselines import reference_optimum
from curvopt.bench import ExperimentConfig, build_instance
from curvopt.manifolds import HYPERBOLIC, SPHERICAL, distance, exp_map, log_map, norm, random_in_ball
from curvopt.objectives import ManifoldObjective, RegularizedObjective, delta_constants
from curvopt.reductions import (
    _stage_problems,
    certified_radius,
    make_regularization_plan,
    plan_gconvex_via_sc,
    plan_strongly_gconvex,
    planned_iterations,
    restart_plan,
    solve_gconvex_via_sc,
    solve_strongly_gconvex,
)

from instances import frechet_instance


def instance_with_offset_start(space, d, R, seed, n_anchors=4, anchor_radius=0.35):
    """Frechet instance plus a start point well away from its optimum."""
    rng = np.random.default_rng(seed)
    center, F = frechet_instance(
        space, d, R, n_anchors, seed=seed, anchor_radius=anchor_radius, padding=0.75 * R
    )
    x_star, f_star = reference_optimum(F, center, R)
    start = AmbientPoint(
        random_in_ball(x_star.coords, space.sign, 0.8 * R, rng, 1)[0], space
    )
    return center, F, start, x_star, f_star


class TestRestartPlan:
    def test_round_count(self):
        plan = restart_plan(HYPERBOLIC, L=1.0, mu=1.0, R=1.0, epsilon=1e-6, recenter=True)
        assert len(plan) == math.ceil(math.log2(1e6) - 1.0)

    def test_minimum_one_round(self):
        assert len(restart_plan(HYPERBOLIC, 1.0, 1.0, 1.0, 10.0, True)) == 1

    def test_rejects_a_radius_whose_round_target_underflows(self):
        # mu R^2 is subnormal, so log2(mu R^2 / epsilon) is finite, and mu R^2 / 4 rounds to 0.
        with pytest.raises(GeometryError, match="of round 0 underflows to 0 at R = 3e-162"):
            restart_plan(SPHERICAL, 1.0, 1.0, 3e-162, 1e-3, True)

    def test_rejects_zero_mu(self):
        with pytest.raises(GeometryError):
            restart_plan(HYPERBOLIC, 1.0, 0.0, 1.0, 1e-3, True)

    @pytest.mark.parametrize("sign", [HYPERBOLIC, SPHERICAL])
    @pytest.mark.parametrize("mu,epsilon", [(1e300, 1e-10), (math.inf, 1e-3)])
    def test_refuses_a_ratio_that_is_not_finite(self, sign, mu, epsilon):
        # mu R^2 / epsilon sets the round count; inf (or NaN) is no plan.
        with pytest.raises(axgd.BudgetError, match=r"mu R\^2 / epsilon = (inf|nan) is not finite"):
            restart_plan(sign, 1e300, mu, 1.0, epsilon, True)

    @pytest.mark.parametrize("mu,epsilon,message", [
        (math.nan, 1e-3, "strictly positive strong convexity"),
        (1.0, math.nan, "epsilon must be positive"),
    ])
    def test_refuses_nan_mu_and_epsilon_by_name(self, mu, epsilon, message):
        with pytest.raises(GeometryError, match=message):
            restart_plan(HYPERBOLIC, 1.0, mu, 1.0, epsilon, True)

    @pytest.mark.parametrize("mu", [1.0, math.inf])
    def test_refuses_an_infinite_epsilon_by_name(self, mu):
        # mu R^2 / inf is 0 (or NaN for an infinite mu): neither names epsilon.
        with pytest.raises(GeometryError, match="epsilon must be positive and finite, not inf"):
            restart_plan(HYPERBOLIC, 1.0, mu, 1.0, math.inf, True)

    @pytest.mark.parametrize("recenter", [True, False])
    def test_rounds_halve_the_squared_radius(self, recenter):
        # Round k targets mu R_k^2 / 4, R_k = R / 2^(k/2); a fixed frame keeps R.
        plan = restart_plan(SPHERICAL, 2.0, 0.5, 0.6, 1e-5, recenter)
        for k, (R_frame, params) in enumerate(plan):
            R_k = 0.6 / 2 ** (k / 2)
            assert R_frame == pytest.approx(R_k if recenter else 0.6)
            assert params.epsilon == pytest.approx(0.5 * R_k**2 / 4)
            assert params.R_tilde == math.tan(R_frame)
        assert 1e-5 / 2 < plan[-1][1].epsilon <= 1e-5

    @pytest.mark.parametrize("recenter", [True, False])
    def test_planned_iterations_are_the_realized_ones(self, recenter):
        space = CurvatureClass.hyperbolic()
        _, F, start, _, _ = instance_with_offset_start(space, 2, 1.0, seed=4)
        plan = restart_plan(space.sign, F.smoothness, F.strong_convexity, 1.0, 1e-3, recenter)
        rounds = []
        solve_strongly_gconvex(F, start, 1.0, 1e-3, recenter=recenter, trace=rounds.append)
        planned = sum(params.t for _, params in plan)
        assert [rt.params for rt in rounds] == [params for _, params in plan]
        assert planned == sum(rt.params.t for rt in rounds) == sum(len(rt.records) for rt in rounds)
class TestSolveStronglyGconvex:
    def test_rejects_non_strongly_convex(self):
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 3, seed=1)
        F0 = with_constants(F, strong_convexity=0.0)
        with pytest.raises(GeometryError):
            solve_strongly_gconvex(F0, center, 1.0, 1e-3)

    def test_start_at_minimizer_stays(self):
        space = CurvatureClass.hyperbolic()
        center = pole(2, space)
        from curvopt import FrechetObjective

        F = FrechetObjective([center], [1.0], center, 0.5, padding=0.5)
        out = solve_strongly_gconvex(F, center, 0.5, 1e-8)
        assert F.value(out) <= 1e-8

    @pytest.mark.parametrize("recenter,eps", [(True, 1e-6), (False, 1e-4)])
    def test_reaches_target_gap(self, recenter, eps):
        # Without recentering the per-round budget keeps the full-ball
        # diameter, so that variant is exercised at a milder accuracy.
        space = CurvatureClass.hyperbolic()
        _, F, start, x_star, f_star = instance_with_offset_start(space, 2, 1.0, seed=2)
        out = solve_strongly_gconvex(F, start, 1.0, eps, recenter=recenter)
        assert F.value(out) - f_star <= eps

    def test_spherical_radius_at_pi_over_2_refused_before_any_round(self, monkeypatch):
        # The radius rule refuses the plan: no round, and so no axgd run, starts.
        space = CurvatureClass.spherical()
        center, F = frechet_instance(space, 2, 0.5, 3, seed=1)
        runs = []
        monkeypatch.setattr(axgd, "run", lambda *args, **kwargs: runs.append(args))
        with pytest.raises(GeometryError, match=r"R = 1.5707963267948966 must lie in \(0, pi/2\) on the sphere"):
            solve_strongly_gconvex(F, center, math.pi / 2, 1e-3)
        assert runs == []

    def test_spherical_instance(self):
        space = CurvatureClass.spherical()
        _, F, start, x_star, f_star = instance_with_offset_start(
            space, 2, 0.5, seed=3, anchor_radius=0.2
        )
        out = solve_strongly_gconvex(F, start, 0.5, 1e-6)
        assert F.value(out) - f_star <= 1e-6

    @pytest.mark.parametrize("recenter", [True, False])
    def test_per_round_distance_contraction(self, recenter):
        # Choose epsilon so the schedule has a handful of rounds; every
        # measured round must at least halve the squared distance.
        space = CurvatureClass.hyperbolic()
        _, F, start, x_star, f_star = instance_with_offset_start(space, 2, 1.0, seed=4)
        mu = F.strong_convexity
        eps = mu * 1.0 / 2**6  # five rounds
        rounds = []
        solve_strongly_gconvex(F, start, 1.0, eps, recenter=recenter, trace=rounds.append)
        assert len(rounds) == 5
        d2_prev = start.distance_to(x_star) ** 2
        for rt in rounds:
            d2 = rt.x_end.distance_to(x_star) ** 2
            assert d2 <= 0.5 * d2_prev * (1 + 1e-6)
            d2_prev = d2

    def test_recentering_shrinks_frames(self):
        space = CurvatureClass.hyperbolic()
        _, F, start, _, _ = instance_with_offset_start(space, 2, 1.0, seed=5)
        rounds = []
        solve_strongly_gconvex(F, start, 1.0, 1e-4, recenter=True, trace=rounds.append)
        radii = [rt.frame.R for rt in rounds]
        assert all(b == pytest.approx(a / math.sqrt(2)) for a, b in zip(radii, radii[1:]))
        for rt in rounds:
            assert rt.frame.x0.distance_to(rt.x_end) <= rt.frame.R + 1e-9

    def test_fixed_frame_without_recentering(self):
        space = CurvatureClass.hyperbolic()
        _, F, start, _, _ = instance_with_offset_start(space, 2, 1.0, seed=6)
        rounds = []
        solve_strongly_gconvex(F, start, 1.0, 1e-3, recenter=False, trace=rounds.append)
        assert all(rt.frame is rounds[0].frame for rt in rounds)


class TestRegularizationPlan:
    def test_stage_count_closed_form(self):
        space = CurvatureClass.hyperbolic()
        plan = make_regularization_plan(space, 1.0, Delta=4.0, epsilon=1e-4)
        assert plan.T == len(plan.stages) == math.ceil(math.log2(4.0 / 1e-4) / 2.0) + 1
        assert plan.stages[0][0] == 4.0

    def test_minimal_schedule_when_eps_exceeds_delta(self):
        space = CurvatureClass.hyperbolic()
        plan = make_regularization_plan(space, 1.0, Delta=1.0, epsilon=2.0)
        assert plan.T == 2

    def test_halving(self):
        space = CurvatureClass.hyperbolic()
        plan = make_regularization_plan(space, 1.0, Delta=4.0, epsilon=1e-4)
        mus = [mu for mu, _ in plan.stages]
        assert all(b == a / 2 for a, b in zip(mus, mus[1:]))

    def test_gap_bounds(self):
        # g_0 = Delta and g_{i+1} = g_i / 4 + mu_{i+1} R^2 / 2 = mu_{i+1} R^2.
        space = CurvatureClass.spherical()
        plan = make_regularization_plan(space, 0.6, Delta=3.0, epsilon=1e-5)
        assert plan.stages[0][1] == 3.0
        for mu, gap in plan.stages[1:]:
            assert gap == pytest.approx(mu * 0.36, rel=1e-12)

    @pytest.mark.parametrize("Delta,epsilon", [(math.inf, 1e-4), (math.nan, 1e-4), (2e300, 1e-10)])
    def test_refuses_a_gap_ratio_that_is_not_finite(self, Delta, epsilon):
        # Delta / epsilon sets the stage count; inf (or NaN) is no plan.
        with pytest.raises(axgd.BudgetError, match="Delta = .* over epsilon = .* is not finite"):
            make_regularization_plan(CurvatureClass.hyperbolic(), 1.0, Delta, epsilon)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_refuses_an_epsilon_that_is_not_finite_by_name(self, epsilon):
        # log2(Delta / inf) is a math domain error, and Delta / NaN no ratio at all.
        with pytest.raises(GeometryError, match="epsilon must be positive and finite, not (inf|nan)"):
            make_regularization_plan(CurvatureClass.hyperbolic(), 1.0, 2.0, epsilon)


@pytest.mark.parametrize("recenter,R_max", [(True, 5.0), (False, 4.0)])
def test_hyperbolic_restart_plan_grows_with_the_radius(recenter, R_max):
    # planned_iterations rests on this: a smaller radius never plans more.
    totals = [
        sum(params.t for _, params in restart_plan(HYPERBOLIC, 2.0, 1.0, R, 1e-3, recenter))
        for R in np.linspace(R_max / 200, R_max, 200)
    ]
    assert all(a <= b for a, b in zip(totals, totals[1:]))


@pytest.mark.parametrize("recenter", [True, False])
def test_spherical_restart_plan_grows_with_the_radius(recenter):
    # As above; a fixed frame's rounds k >= 1 take min(2 R~, R_k / cos^2 R) as D.
    totals = [
        sum(params.t for _, params in restart_plan(SPHERICAL, 2.0, 1.0, R, 1e-3, recenter))
        for R in np.linspace(1.3 / 200, 1.3, 200)
    ]
    assert all(a <= b for a, b in zip(totals, totals[1:]))


@pytest.mark.parametrize(
    "sign,R,d", [(sign, R, d) for sign, radii in checks.DEFAULT_GRID for R in radii for d in checks.DEFAULT_DIMS]
)
def test_gradient_certifies_the_distance_to_the_minimizer(sign, R, d):
    # d(x, x*) <= |grad F(x)| / sc on each checks cell, for a Frechet instance
    # and for its regularized stage objective.  d(., x0)^2 / 2 is delta_p-strongly
    # g-convex within delta_constants' D = R of x0, which holds x and x*.
    space = CurvatureClass(sign)
    center, F = frechet_instance(space, d, R, 4, seed=11)
    F_i = RegularizedObjective(F, F.smoothness, center, delta_constants(float(sign), float(sign), R))
    x = random_in_ball(center.coords, sign, R, np.random.default_rng(12), 200)
    for G in (F, F_i):
        x_star = reference_optimum(G, center, R)[0]
        bound = norm(G.grad_c(x), sign) / G.strong_convexity
        assert np.all(distance(x, x_star.coords, sign) <= bound + 1e-9)


REDUCE_GC_RUNS = pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(manifold="spherical", curvature=1.0, d=5, R=0.6, anchor_count=8, seed=3),
        dict(manifold="spherical", curvature=1.0, d=10, R=0.7, anchor_count=20, seed=5),
    ],
    ids=["H2", "S5", "S10"],
)


def _reduce_gc_run(overrides, eps=1e-3):
    """A traced reduce_gc run on a bench instance: (instance, F, plan, stages)."""
    inst = build_instance(
        ExperimentConfig(**{"weights": "random", "seed": 20240, "solver": "reduce_gc", **overrides})
    )
    F = with_constants(inst.objective, strong_convexity=0.0)
    plan = make_regularization_plan(F.space, inst.R, 2.0 * F.smoothness * inst.R**2, eps)
    stages = []
    solve_gconvex_via_sc(F, inst.x0, inst.R, eps, trace=stages.append)
    return inst, F, plan, stages


@REDUCE_GC_RUNS
def test_stage_zero_plan_is_exact(overrides):
    # Stage 0 starts at x0, so the planner knows its certified radius; on S^10
    # sqrt(2 g_0 / sc_0) is about 2 > pi/2, so the plan must not use it alone.
    inst, F, plan, stages = _reduce_gc_run(overrides)
    problems = list(_stage_problems(F, inst.x0, plan))
    F_0, eps_0, R_up = problems[0]
    R_0 = min(inst.R, R_up, certified_radius(F_0, inst.x0, 0))
    planned = restart_plan(F.space.sign, F_0.smoothness, F_0.strong_convexity, R_0, eps_0, True)
    assert [params for _, params in planned] == [rt.params for rt in stages[0].rounds]
    assert planned_iterations(problems, inst.R, R_0, True) >= sum(params.t for _, params in planned) > 0


@REDUCE_GC_RUNS
def test_each_stage_runs_inside_its_certified_radius(overrides):
    # Each stage's frame radius is min(uncertified radius, certified radius), it
    # plans at most its plan at the uncertified radius, and it meets g_i / 4 on F_i.
    inst, F, plan, stages = _reduce_gc_run(overrides)
    x, sign = inst.x0, F.space.sign
    assert len(stages) == plan.T
    for i, ((F_i, eps_i, R_up), st) in enumerate(zip(_stage_problems(F, inst.x0, plan), stages)):
        R_prior = min(x.distance_to(inst.x0) + inst.R, R_up)
        r = certified_radius(F_i, x, i)
        assert st.rounds[0].frame.R == min(R_prior, r) <= r
        prior = restart_plan(sign, F_i.smoothness, F_i.strong_convexity, R_prior, eps_i, True)
        assert sum(rt.params.t for rt in st.rounds) <= sum(params.t for _, params in prior)
        assert F_i.value(st.x_end) - reference_optimum(F_i, inst.x0, inst.R)[1] <= eps_i
        x = st.x_end


def test_certified_stage_radii_cut_the_s10_evals():
    # The reduce-s10 benchmark config: the regularization plan spent 7284 evals
    # here with the uncertified stage radii min(d(x, x0) + R, sqrt(2 g_i / sc_i)).
    inst = build_instance(ExperimentConfig(
        manifold="spherical", curvature=1.0, d=10, R=0.7, anchor_count=20, epsilon=1e-5, seed=1, solver="reduce_gc"
    ))
    F = with_constants(inst.objective, strong_convexity=0.0)
    stages = []
    x = solve_gconvex_via_sc(F, inst.x0, inst.R, 1e-5, trace=stages.append)
    assert sum(st.grad_evals for st in stages) <= 7284 / 3
    assert F.value(x) - inst.f_star <= 1e-5


class HalfSquaredDistance(ManifoldObjective):
    """d(x, a)^2 / 2 through the chord-accurate log map, declared g-convex; its gradient resolves tiny distances."""

    smoothness, strong_convexity = 2.0, 0.0

    def __init__(self, a):
        self.a, self.space = a, a.space

    def value_c(self, x):
        return 0.5 * distance(x, self.a.coords, self.space.sign) ** 2

    def grad_c(self, x):
        return -log_map(x, self.a.coords, self.space.sign)


@pytest.mark.parametrize("offset", [0.0, 3e-162, 1e-160, 1e-20])
@pytest.mark.parametrize("space", [CurvatureClass.hyperbolic(), CurvatureClass.spherical()])
def test_a_start_at_every_stage_minimizer_runs_no_round(space, offset):
    # From x0 within `offset` of the minimizer, each stage's certificate shows a
    # gap below half an ulp of its target.  At 3e-162 restart_plan refuses
    # stage 0's certified radius as underflowing, and at 1e-160 later stages
    # would plan rounds whose line-search slacks underflow to 0.
    x0 = pole(2, space)
    F = HalfSquaredDistance(AmbientPoint(exp_map(x0.coords, np.array([offset, 0.0, 0.0]), space.sign), space))
    plan = make_regularization_plan(space, 0.5, 2.0 * F.smoothness * 0.25, 1e-6)
    F_0, eps_0, _ = next(_stage_problems(F, x0, plan))
    r = certified_radius(F_0, x0, 0)
    if offset == 3e-162:
        with pytest.raises(GeometryError, match="underflows to 0"):
            restart_plan(space.sign, F_0.smoothness, F_0.strong_convexity, r, eps_0, True)
    stages = []
    out = solve_gconvex_via_sc(F, x0, 0.5, 1e-6, trace=stages.append)
    assert out == x0 and len(stages) == plan.T
    assert all(st.rounds == [] and st.grad_evals == 1 for st in stages)


def test_a_gradient_that_is_not_finite_names_its_stage():
    space = CurvatureClass.hyperbolic()
    center, F = frechet_instance(space, 2, 1.0, 4, seed=7)
    broken = with_constants(F, strong_convexity=0.0)
    broken.grad_c = lambda x: np.full_like(x, math.nan)
    with pytest.raises(GeometryError, match="stage 0: the gradient at the warm start is not finite"):
        plan_gconvex_via_sc(broken, center, 1.0, 1e-3)
    F_3 = RegularizedObjective(broken, 0.5, center, delta_constants(-1.0, -1.0, 2.0))
    with pytest.raises(GeometryError, match="stage 3: the gradient at the warm start is not finite"):
        certified_radius(F_3, center, 3)


class TestSolveGconvexViaSc:
    def test_end_to_end_gap(self):
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 4, seed=7, padding=0.75)
        Fg = with_constants(F, strong_convexity=0.0)
        x_star, f_star = reference_optimum(Fg, center, 1.0)
        stages = []
        out = solve_gconvex_via_sc(Fg, center, 1.0, 1e-4, trace=stages.append)
        assert Fg.value(out) - f_star <= 1e-4
        plan = make_regularization_plan(space, 1.0, 2 * Fg.smoothness, 1e-4)
        assert len(stages) == plan.T
        mus = [st.mu_i for st in stages]
        assert all(b == a / 2 for a, b in zip(mus, mus[1:]))

    def test_eps_above_delta_still_returns_valid_point(self):
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 3, seed=8, padding=0.75)
        Fg = with_constants(F, strong_convexity=0.0)
        x_star, f_star = reference_optimum(Fg, center, 1.0)
        eps = 10.0 * F.smoothness
        stages = []
        out = solve_gconvex_via_sc(Fg, center, 1.0, eps, trace=stages.append)
        assert len(stages) == 2
        assert Fg.value(out) - f_star <= eps

    @pytest.mark.parametrize("solver", ["restart_sc", "reduce_gc"])
    def test_a_planned_run_is_its_solve(self, solver):
        # The planner's run, called twice, gives the solve's point and trace.
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 4, seed=7, padding=0.75)
        if solver == "reduce_gc":
            F = with_constants(F, strong_convexity=0.0)
        plan, solve = {
            "restart_sc": (plan_strongly_gconvex, solve_strongly_gconvex),
            "reduce_gc": (plan_gconvex_via_sc, solve_gconvex_via_sc),
        }[solver]
        run = plan(F, center, 1.0, 1e-3)
        solved, planned, again = [], [], []
        x = solve(F, center, 1.0, 1e-3, trace=solved.append)
        assert np.array_equal(run(planned.append).coords, x.coords)
        assert np.array_equal(run(again.append).coords, x.coords)
        assert [e.grad_evals for e in solved] == [e.grad_evals for e in planned] == [e.grad_evals for e in again]
        assert np.array_equal(run().coords, x.coords)

    def test_untraced_run_keeps_no_records(self, monkeypatch):
        # Without a trace, no round or stage passes a sink down to the solver.
        sinks = []
        run = axgd.run

        def spy(f, params, x0, trace=None):
            sinks.append(trace)
            return run(f, params, x0, trace=trace)

        monkeypatch.setattr(axgd, "run", spy)
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 4, seed=7, padding=0.75)
        Fg = with_constants(F, strong_convexity=0.0)
        untraced = solve_gconvex_via_sc(Fg, center, 1.0, 1e-3)
        assert len(sinks) > 1 and sinks == [None] * len(sinks)
        stages = []
        traced = solve_gconvex_via_sc(Fg, center, 1.0, 1e-3, trace=stages.append)
        assert np.array_equal(traced.coords, untraced.coords)
        assert all(rt.records for st in stages for rt in st.rounds)

    def test_stage_constants_hold_on_samples(self):
        # Each stage's declared constants must satisfy the defining
        # inequalities of smoothness/strong convexity on random pairs.
        space = CurvatureClass.hyperbolic()
        center, F = frechet_instance(space, 2, 1.0, 4, seed=9, padding=0.75)
        Fg = with_constants(F, strong_convexity=0.0)
        delta = delta_constants(-1.0, -1.0, 2.0)
        rng = np.random.default_rng(0)
        from curvopt.manifolds import distance, inner, log_map

        for mu_i in (2.0, 0.5, 0.125):
            Fs = RegularizedObjective(Fg, mu_i, center, delta)
            x = random_in_ball(center.coords, space.sign, 1.0, rng, 2000)
            y = random_in_ball(center.coords, space.sign, 1.0, rng, 2000)
            fx, fy = Fs.value_c(x), Fs.value_c(y)
            lin = inner(Fs.grad_c(x), log_map(x, y, space.sign), space.sign)
            dd = distance(x, y, space.sign)
            scale = 1.0 + np.abs(fx) + np.abs(fy)
            up = (fy - fx - lin - 0.5 * Fs.smoothness * dd**2) / scale
            lo = (fx + lin + 0.5 * Fs.strong_convexity * dd**2 - fy) / scale
            assert float(np.max(up)) <= 1e-12
            assert float(np.max(lo)) <= 1e-12
