"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``.  Shared expensive runs
(the benchmark instance, the epsilon sweep, the condition sweep) live in
session fixtures so each solver trajectory is computed once.

Baseline accounting convention: every solver is run for the iteration
budget its declared problem class certifies, and reported evaluation
counts are the evaluations actually performed.  A measured-gap stop would
need oracle knowledge of the optimal value, which no real solver has.
"""

import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from curvopt import (
    AmbientPoint,
    CurvatureClass,
    FrechetObjective,
    MappedObjective,
    make_frame,
    pole,
    with_constants,
)
from curvopt import axgd, checks
from curvopt.baselines import RgdParams, reference_optimum, rgd_run
from curvopt.bench import fit_rate_exponent, rgd_budget
from curvopt.geomap import deformation_constants
from curvopt.manifolds import random_in_ball
from curvopt.reductions import (
    make_regularization_plan,
    solve_gconvex_via_sc,
    solve_strongly_gconvex,
)

from instances import cli_env

GRID = checks.DEFAULT_GRID
DIMS = checks.DEFAULT_DIMS
SEED = 20240

EPS_SWEEP = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
CONDITIONS = (10.0, 100.0, 1000.0, 10000.0)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------------
# shared instances and runs


@dataclass
class BenchInstance:
    center: AmbientPoint
    F: FrechetObjective
    frame: object
    dc: object
    fmap: MappedObjective
    f_star: float
    x_star: AmbientPoint


@pytest.fixture(scope="session")
def instance_h():
    """Criterion-4 instance: 5-anchor weighted Frechet mean on H, d=2, R=1."""
    space = CurvatureClass.hyperbolic()
    center = pole(2, space)
    rng = np.random.default_rng(SEED)
    coords = random_in_ball(center.coords, -1, 0.75, rng, 5)
    anchors = [AmbientPoint(c, space) for c in coords]
    w = rng.uniform(0.5, 1.5, 5)
    F = FrechetObjective(anchors, w / w.sum(), center, 1.0, padding=0.75)
    x_star, f_star = reference_optimum(F, center, 1.0)
    frame = make_frame(center, 1.0)
    dc = deformation_constants(frame, F.smoothness)
    return BenchInstance(center, F, frame, dc, MappedObjective(F, frame), f_star, x_star)


@pytest.fixture(scope="session")
def axgd_sweep(instance_h):
    """AXGD runs over the epsilon sweep; per-epsilon traces."""
    out = {}
    for eps in EPS_SWEEP:
        params = axgd.params_from_constants(
            instance_h.dc, instance_h.frame.R_tilde, eps
        )
        records = []
        xt = axgd.run(instance_h.fmap, params, np.zeros(2), trace=records.append)
        out[eps] = (params, records, instance_h.fmap.value(xt))
    return out


@pytest.fixture(scope="session")
def rgd_sweep(instance_h):
    """Certified-budget RGD over the same sweep.

    The sweep runs share one deterministic trajectory, so the largest
    budget is executed once and the smaller runs are its prefixes; the
    evaluation counts reported per epsilon are the counts those runs spend.
    """
    F = with_constants(instance_h.F, strong_convexity=0.0)
    budgets = {eps: rgd_budget(F, 1.0, eps) for eps in EPS_SWEEP}
    longest = max(budgets.values())
    recs = []
    params = RgdParams(
        step=1.0 / F.smoothness, max_iters=longest, tol_grad=-1.0, trace_stride=longest
    )
    out = rgd_run(F, instance_h.center, 1.0, params, trace=recs.append)
    assert recs[-1].grad_evals == longest + 1  # the budget was actually spent
    final_gap = instance_h.F.value(out) - instance_h.f_star
    return budgets, final_gap


@pytest.fixture(scope="session")
def condition_sweep(instance_h):
    """Restart solver and RGD across declared condition ratios L/mu."""
    restart = {}
    rgd = {}
    for cond in CONDITIONS:
        Fc = with_constants(
            instance_h.F, smoothness=cond * instance_h.F.strong_convexity
        )
        rounds = []
        out = solve_strongly_gconvex(
            Fc, instance_h.center, 1.0, 1e-6, recenter=True, trace=rounds.append
        )
        gap = instance_h.F.value(out) - instance_h.f_star
        restart[cond] = (rounds, sum(rt.grad_evals for rt in rounds), gap)

        budget = rgd_budget(Fc, 1.0, 1e-6)
        recs = []
        params = RgdParams(
            step=1.0 / Fc.smoothness, max_iters=budget, tol_grad=-1.0, trace_stride=budget
        )
        out = rgd_run(Fc, instance_h.center, 1.0, params, trace=recs.append)
        rgd[cond] = (recs[-1].grad_evals, instance_h.F.value(out) - instance_h.f_star)
    return restart, rgd


# ----------------------------------------------------------------------
# criteria


def test_criterion_01_geometry_identities():
    """Map/metric consistency, round trips, and the three deformation laws
    over the full (K, d, R) grid at 10^4 samples per cell."""
    t0 = time.perf_counter()
    suite = [
        checks.check_eq1_consistency,
        checks.check_roundtrips,
        checks.check_distance_deformation,
        checks.check_angle_deformation,
        checks.check_gradient_orthogonality,
    ]
    results = checks.run_grid(suite, n=10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    bad = [r for r in results if not r.ok]
    ok = not bad and elapsed < 30.0
    detail = (
        f"{len(results)} cell-checks, worst slack "
        f"{max(r.worst - r.bound for r in results):.2e}, {elapsed:.1f}s"
    )
    assert report(1, ok, detail), "\n".join(str(r) for r in bad) or detail


def test_criterion_02_sandwich_suite():
    """Directional-derivative ratio sandwich and both relaxed-convexity
    lower bounds: zero violations at 10^4 samples per grid cell."""
    suite = [checks.check_directional_ratio, checks.check_relaxed_convexity]
    results = checks.run_grid(suite, n=10_000, seed=SEED)
    bad = [r for r in results if not r.ok]
    ok = not bad
    detail = f"{len(results)} cell-checks, worst slack {max(r.worst - r.bound for r in results):.2e}"
    assert report("2a", ok, detail), "\n".join(str(r) for r in bad) or detail


def test_criterion_02_extreme_ratios_hyperbolic():
    """Observed extreme ratios reach within a factor 2 of the closed-form
    constants on the hyperbolic R=1 cell."""
    rng = np.random.default_rng(SEED)
    res = checks.check_directional_ratio(-1, 2, 1.0, 10_000, rng)
    lo, hi = res.extremes
    lo_b, hi_b = res.bounds
    ok = lo <= 2 * lo_b and hi >= hi_b / 2
    detail = f"observed [{lo:.3f}, {hi:.3f}] vs bounds [{lo_b:.3f}, {hi_b:.3f}]"
    assert report("2b", ok, detail), detail


def test_criterion_02_extreme_ratios_spherical():
    """Spherical side of the factor-2 check.

    Known to be unattainable: on the sphere at R=1 the attainable ratio
    range over all configurations is about [0.615, 2.446] (verified by
    dense brute force over the full configuration space), while the
    closed-form constants give [0.292, 6.340].  The constants bound each
    deformation factor separately and the extremes cannot co-occur, so
    they are conservative by more than a factor 2.  Kept as specified;
    see the decisions ledger.
    """
    rng = np.random.default_rng(SEED)
    res = checks.check_directional_ratio(1, 2, 1.0, 10_000, rng)
    lo, hi = res.extremes
    lo_b, hi_b = res.bounds
    ok = lo <= 2 * lo_b and hi >= hi_b / 2
    detail = (
        f"observed [{lo:.3f}, {hi:.3f}] vs bounds [{lo_b:.3f}, {hi_b:.3f}]; "
        f"true attainable range is [0.615, 2.446]"
    )
    assert report("2c", ok, detail), detail


def test_criterion_03_gradient_pullback_fd():
    """Pullback gradient matches central finite differences to 1e-6
    relative on 10^3 points per grid cell."""
    results = checks.run_grid([checks.check_pullback_fd], n=1_000, seed=SEED)
    bad = [r for r in results if not r.ok]
    ok = not bad
    detail = f"worst relative error {max(r.worst for r in results):.2e} over {len(results)} cells"
    assert report(3, ok, detail), "\n".join(str(r) for r in bad) or detail


def test_criterion_04_solver_correctness(instance_h, axgd_sweep):
    """Accelerated solver reaches the 1e-4 gap within its certified
    iteration budget, and every accepted step satisfies the line-search
    inequality under direct recomputation."""
    t0 = time.perf_counter()
    eps = 1e-4
    params, records, f_final = axgd_sweep[eps]
    dc, frame = instance_h.dc, instance_h.frame
    # The least t with t (t + 1) >= 16 L~ R~^2 / (7 gamma_n^2 gamma_p eps): the
    # run starts at the ball centre, within R~ of the optimum.
    q = 16 * dc.L_tilde * frame.R_tilde**2 / (7 * dc.gamma_n**2 * dc.gamma_p * eps)
    budget = math.ceil(math.sqrt(q + 0.25) - 0.5)
    gap = f_final - instance_h.f_star
    recheck_ok = True
    f_prev = None
    for rec in records:
        if rec.i >= 2:
            inner = float(instance_h.fmap.grad(rec.x) @ (rec.x - rec.x_prev))
            if rec.f_value - f_prev > rec.gamma_hat * inner + rec.eps_hat:
                recheck_ok = False
            if not dc.gamma_p <= rec.gamma_hat <= 1.0 / dc.gamma_n + 1e-12:
                recheck_ok = False
        f_prev = rec.f_value
    elapsed = time.perf_counter() - t0
    ok = params.t == budget and gap <= eps and recheck_ok and elapsed < 10.0
    detail = (
        f"gap {gap:.2e} <= {eps:g} in t={params.t} (budget {budget}), "
        f"step inequality re-check {'ok' if recheck_ok else 'VIOLATED'}, {elapsed:.1f}s"
    )
    assert report(4, ok, detail), detail


def test_criterion_05_rate_exponents(axgd_sweep, rgd_sweep, instance_h):
    """Oracle-call scaling over the epsilon sweep: accelerated solver fits
    a log-deflated exponent in [0.35, 0.65]; the certified-budget descent
    baseline fits >= 0.85."""
    axgd_series = [(eps, axgd_sweep[eps][1][-1].grad_evals) for eps in EPS_SWEEP]
    slope_axgd = fit_rate_exponent(axgd_series, deflate_log=True)
    budgets, rgd_final_gap = rgd_sweep
    rgd_series = [(eps, budgets[eps] + 1) for eps in EPS_SWEEP]
    slope_rgd = fit_rate_exponent(rgd_series, deflate_log=False)
    gaps_ok = all(
        axgd_sweep[eps][2] - instance_h.f_star <= eps for eps in EPS_SWEEP
    ) and rgd_final_gap <= min(EPS_SWEEP)
    ok = 0.35 <= slope_axgd <= 0.65 and slope_rgd >= 0.85 and gaps_ok
    detail = (
        f"accelerated exponent {slope_axgd:.3f} in [0.35, 0.65]; "
        f"baseline exponent {slope_rgd:.3f} >= 0.85"
    )
    assert report(5, ok, detail), detail


def test_criterion_06_condition_scaling(condition_sweep):
    """Condition-number scaling: restart solver evals fit slope 0.5 +- 0.15
    against L/mu; the descent baseline fits >= 0.85."""
    restart, rgd = condition_sweep
    restart_series = [(1.0 / c, restart[c][1]) for c in CONDITIONS]
    rgd_series = [(1.0 / c, rgd[c][0]) for c in CONDITIONS]
    slope_restart = fit_rate_exponent(restart_series, deflate_log=False)
    slope_rgd = fit_rate_exponent(rgd_series, deflate_log=False)
    gaps_ok = all(restart[c][2] <= 1e-6 for c in CONDITIONS) and all(
        rgd[c][1] <= 1e-6 for c in CONDITIONS
    )
    ok = abs(slope_restart - 0.5) <= 0.15 and slope_rgd >= 0.85 and gaps_ok
    detail = (
        f"restart exponent {slope_restart:.3f} (target 0.5 +- 0.15); "
        f"baseline exponent {slope_rgd:.3f} >= 0.85"
    )
    assert report(6, ok, detail), detail


def test_criterion_07_restart_contraction(instance_h):
    """Measured per-round halving of the squared distance to the optimum,
    with and without map recentering."""
    rng = np.random.default_rng(SEED + 1)
    start = AmbientPoint(
        random_in_ball(instance_h.x_star.coords, -1, 0.8, rng, 1)[0],
        instance_h.center.space,
    )
    mu = instance_h.F.strong_convexity
    eps = mu / 2**6  # five rounds
    ok = True
    details = []
    for recenter in (True, False):
        rounds = []
        solve_strongly_gconvex(
            instance_h.F, start, 1.0, eps, recenter=recenter, trace=rounds.append
        )
        d2_prev = start.distance_to(instance_h.x_star) ** 2
        worst = 0.0
        for rt in rounds:
            d2 = rt.x_end.distance_to(instance_h.x_star) ** 2
            worst = max(worst, d2 / d2_prev)
            ok = ok and d2 <= 0.5 * d2_prev * (1 + 1e-6)
            d2_prev = d2
        details.append(f"recenter={recenter}: {len(rounds)} rounds, worst ratio {worst:.3f}")
    detail = "; ".join(details) + " (halving tolerance 0.5*(1+1e-6))"
    assert report(7, ok, detail), detail


def test_fixed_frame_restart_rounds_meet_their_targets(instance_h):
    """Criterion 7's fixed-frame run: each round reaches its target mu R_k^2 / 4
    on the budget certified from its start's distance D to the optimum, R~
    from the centre in round 0 and min(2 R~, R_k / dist_lo) after it."""
    rng = np.random.default_rng(SEED + 1)
    start = AmbientPoint(
        random_in_ball(instance_h.x_star.coords, -1, 0.8, rng, 1)[0],
        instance_h.center.space,
    )
    F, mu = instance_h.F, instance_h.F.strong_convexity
    rounds = []
    solve_strongly_gconvex(F, start, 1.0, mu / 2**6, recenter=False, trace=rounds.append)
    assert len(rounds) == 5
    R_tilde = rounds[0].frame.R_tilde
    dc = deformation_constants(rounds[0].frame, F.smoothness)
    for k, rt in enumerate(rounds):
        R_k = 1.0 / 2 ** (k / 2)
        D = R_tilde if k == 0 else min(2 * R_tilde, R_k / dc.dist_lo)
        q = 16 * dc.L_tilde * D**2 / (7 * dc.gamma_n**2 * dc.gamma_p * rt.params.epsilon)
        t = rt.params.t
        assert rt.params.epsilon == pytest.approx(mu * R_k**2 / 4, rel=1e-15)
        assert t * (t + 1) >= q > (t - 1) * t
        assert F.value(rt.x_end) - instance_h.f_star <= rt.params.epsilon, k


def test_criterion_08_regularization_schedule(instance_h):
    """g-convex solve through the strongly-convex reduction reaches the
    target with the exact stage schedule."""
    F = with_constants(instance_h.F, strong_convexity=0.0)
    eps = 1e-4
    Delta = 2.0 * F.smoothness * 1.0**2
    plan = make_regularization_plan(F.space, 1.0, Delta, eps)
    expected_T = math.ceil(math.log2(Delta / eps) / 2.0) + 1
    stages = []
    out = solve_gconvex_via_sc(F, instance_h.center, 1.0, eps, trace=stages.append)
    gap = F.value(out) - instance_h.f_star
    mus = [st.mu_i for st in stages]
    schedule_ok = (
        len(stages) == expected_T == plan.T
        and mus[0] == Delta
        and all(b == a / 2 for a, b in zip(mus, mus[1:]))
    )
    ok = gap <= eps and schedule_ok
    detail = f"gap {gap:.2e} <= {eps:g}, stages {len(stages)} == ceil(log2(Delta/eps)/2)+1 = {expected_T}"
    assert report(8, ok, detail), detail


def test_criterion_09_line_search_budget(axgd_sweep, condition_sweep):
    """Probe counts of every accepted iteration in criteria 4-6 stay within
    4 log2(L~ R~ i / (gamma_n eps_hat_i)) + 4; no probe-cap failures."""
    checked = 0
    worst_margin = -math.inf

    def scan(params, records):
        nonlocal checked, worst_margin
        for rec in records:
            if rec.i < 2:
                continue
            i = rec.i - 1  # line-search iteration index
            arg = params.L_tilde * params.R_tilde * i / (params.gamma_n * rec.eps_hat)
            bound = 4.0 * math.log2(arg) + 4.0
            worst_margin = max(worst_margin, rec.probes - bound)
            checked += 1

    for eps in EPS_SWEEP:
        params, records, _ = axgd_sweep[eps]
        scan(params, records)
    restart, _ = condition_sweep
    for cond in CONDITIONS:
        for rt in restart[cond][0]:
            scan(rt.params, rt.records)
    ok = worst_margin <= 0.0 and checked > 0
    detail = f"{checked} accepted iterations, worst probes-minus-bound {worst_margin:.1f}"
    assert report(9, ok, detail), detail


def test_criterion_10_cli_determinism(tmp_path):
    """Two `bench run` invocations with one seed produce byte-identical CSV."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "manifold = hyperbolic\nd = 2\ncurvature = -1.0\nR = 1.0\n"
        "anchor_count = 5\nweights = random\nsolver = axgd\n"
        f"epsilon = 1e-4\nseed = {SEED}\n"
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [
                sys.executable,
                "-m",
                "curvopt",
                "run",
                "--config",
                str(cfg),
                "--output",
                str(out),
            ],
            env=cli_env(),
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    detail = f"two runs, {len(outs[0])} bytes each, identical={outs[0] == outs[1]}"
    assert report(10, ok, detail), detail
