"""Black-box reductions between the g-convex and strongly g-convex regimes.

Both reductions (Allen-Zhu & Hazan, "Optimal Black-Box Reductions Between
Optimization Objectives", NeurIPS 2016) run a schedule fixed before their
first solve, and one planner lists each schedule:

- ``restart_plan`` lists the rounds of ``solve_strongly_gconvex``.  Round k
  targets a gap of mu R_k^2 / 4, which halves the squared distance to the
  optimum, so round k + 1 runs on a ball of radius R_k / sqrt(2), around
  the previous output when the geodesic map is re-centered.  Each entry
  holds the radius of the round's map and its solver parameters, which
  carry the round's target.
- ``make_regularization_plan`` lists the stages of ``solve_gconvex_via_sc``,
  which minimizes the regularized objectives F + (mu_i / 2) d(., x0)^2 for
  a halving mu_i, warm-starting each stage at the previous output.  Each
  entry holds mu_i and a bound on the stage's initial gap, a quarter of
  which is the stage's target.  A stage's radius is certified once, from
  the gradient at its warm start (``certified_radius``).

``plan_strongly_gconvex`` and ``plan_gconvex_via_sc`` plan a run once and
return it as ``run(trace=None)``; each ``solve_*`` is its planner's run,
called at once.  Both planners refuse an epsilon below the float64 floor
(``refuse_below_floor``, one ``ValueError`` naming epsilon) and a plan that
sums to more than ``axgd.MAX_ITERATIONS`` iterations, with
``axgd.BudgetError``, as a single round above that cap already does while
planning.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import axgd
from .geomap import ball_radius, deformation_constants_for, from_ball, make_frame, to_ball
from .manifolds import AmbientPoint, GeometryError, norm
from .objectives import DeltaConstants, MappedObjective, RegularizedObjective, delta_constants


def restart_plan(sign, L, mu, R, epsilon, recenter):
    """The rounds that take an L-smooth, mu-strongly g-convex F to gap epsilon.

    R bounds the distance from the start to the minimizer.  Round k starts
    within R_k = R / 2^(k/2) of it and targets eps_k = mu R_k^2 / 4; there
    are max(1, ceil(log2(mu R^2 / epsilon) - 1)) rounds, so the last target
    lies in (epsilon / 2, epsilon].  Each round is a pair (radius, params):
    the radius of the ball its map covers, R_k when the map is re-centered
    each round and R (the fixed frame's) otherwise, and the solver
    parameters certified on that ball for target eps_k = params.epsilon.
    A round's budget is certified from its start's distance D to the
    minimizer in ball coordinates (``axgd.iteration_budget``).  A
    re-centered round, and round 0 of a fixed frame, starts at the ball
    centre, so D = R~, the ball's image radius.  Round k >= 1 of a fixed
    frame starts at the previous output, within R_k of the minimizer, and
    points a distance d apart lie at most d / dist_lo apart in the ball, so
    D = min(2 R~, R_k / dist_lo).  epsilon must be positive and finite, R must
    pass ``geomap.ball_radius``, and neither mu R^2 / epsilon nor any eps_k may
    round to 0.  A mu R^2 / epsilon that is not finite asks for infinitely
    many rounds, and raises ``axgd.BudgetError``.
    """
    # Each test is written so that NaN fails it.
    if not mu > 0:
        raise GeometryError("restart reduction needs strictly positive strong convexity")
    if not 0 < epsilon < math.inf:
        raise GeometryError(f"epsilon must be positive and finite, not {epsilon!r}")
    ball_radius(sign, R)  # the radius rule, before the log2 that needs R
    ratio = mu * R * R / epsilon
    if not ratio < math.inf:
        raise axgd.BudgetError(f"mu R^2 / epsilon = {ratio:g} is not finite, at mu = {mu:g}, epsilon = {epsilon:g}")
    if not ratio > 0.0:
        raise GeometryError(f"mu R^2 / epsilon underflows to 0 at R = {float(R)!r}")
    plan = []
    for k in range(max(1, math.ceil(math.log2(ratio) - 1.0))):
        R_k = R / 2 ** (k / 2.0)
        eps_k = mu * R_k * R_k / 4.0
        if not eps_k > 0.0:
            raise GeometryError(f"the target mu R_k^2 / 4 of round {k} underflows to 0 at R = {float(R)!r}")
        R_frame = R_k if recenter else R
        dc = deformation_constants_for(sign, R_frame, L)
        R_tilde = ball_radius(sign, R_frame)
        D = R_tilde if recenter or k == 0 else min(2.0 * R_tilde, R_k / dc.dist_lo)
        plan.append((R_frame, axgd.params_from_constants(dc, R_tilde, eps_k, D)))
    return plan


def refuse_below_floor(F, x0, epsilon):
    """Raise ``ValueError`` naming epsilon when it lies below eps_machine |F(x0)|, which no float64 run certifies."""
    # A certificate F(x) - F* <= epsilon rests on differences of computed
    # values of F, and a computed value v carries the rounding of its
    # result, up to eps_machine |v| / 2.  A run descends from F(x0) to near
    # F* <= F(x0), and for F >= 0, as for the library's squared-distance
    # objectives, |F*| <= |F(x0)|: the two ends of the descent together
    # carry up to eps_machine |F(x0)|.  No smaller gap can be told from
    # rounding, so no float64 run certifies it.
    floor = np.finfo(float).eps * abs(F.value(x0))
    if epsilon < floor:
        raise ValueError(
            f"epsilon = {epsilon:g} is below the float64 floor eps_machine |F(x0)| = {floor:.3g}"
        )


def _refuse_above_cap(n):
    if n > axgd.MAX_ITERATIONS:
        raise axgd.BudgetError(f"the plan sums to {n:.3g} iterations, over {axgd.MAX_ITERATIONS:.0e}")


def plan_strongly_gconvex(F, x0, R, epsilon, recenter=True):
    """Plan a ``solve_strongly_gconvex`` run, or raise the error that refuses it.

    Returns ``run(trace=None)``, which follows the checked ``restart_plan``
    and returns the final point, handing ``trace`` a ``RoundTrace`` per
    round.
    """
    refuse_below_floor(F, x0, epsilon)
    plan = restart_plan(F.space.sign, F.smoothness, F.strong_convexity, R, epsilon, recenter)
    _refuse_above_cap(sum(params.t for _, params in plan))

    def run(trace=None):
        x, frame = x0, None if recenter else make_frame(x0, R)
        for R_frame, params in plan:
            if recenter:
                frame = make_frame(x, R_frame)
            start = np.zeros(frame.d) if recenter else to_ball(frame, x)
            records = []
            traced = None if trace is None else records.append
            xt = axgd.run(MappedObjective(F, frame), params, start, trace=traced)
            x = AmbientPoint(from_ball(frame, xt), F.space)
            if trace is not None:
                trace(RoundTrace(frame, params, records, x))
        return x

    return run


class RoundTrace(NamedTuple):
    frame: object
    params: axgd.SolverParams
    records: list
    x_end: AmbientPoint

    @property
    def grad_evals(self):
        return self.records[-1].grad_evals


def solve_strongly_gconvex(F, x0, R, epsilon, recenter=True, trace=None):
    """Minimize a declared strongly g-convex F to gap <= epsilon.

    ``R`` bounds the distance from x0 to the minimizer.  With ``recenter``
    the geodesic map is rebuilt at each round's output with the radius
    shrunk by 1/sqrt(2), which requires F to be evaluable slightly outside
    the original ball.  The run follows ``restart_plan``, whose iteration
    count is exact.  A round's records are kept only to pass to ``trace``.
    """
    return plan_strongly_gconvex(F, x0, R, epsilon, recenter)(trace)


class RegularizationPlan(NamedTuple):
    """Stages as pairs (mu_i, g_i), and the distortion constants of the regularizer."""

    stages: tuple
    delta: DeltaConstants

    @property
    def T(self):
        return len(self.stages)


def make_regularization_plan(space, R, Delta, epsilon):
    """The stages that take an L-smooth g-convex F from gap Delta toward epsilon.

    There are T = max(2, ceil(log2(Delta / epsilon) / 2) + 1) stages with
    mu_i = Delta / (R^2 2^i).  Stage i minimizes F_i = F + (mu_i / 2)
    d(., x0)^2 from a point x_{i-1} of F_i gap at most g_i, g_0 = Delta, to
    an output x_i of gap at most g_i / 4.  F_i(x*_i) <= F_i(x*) puts the
    stage minimizer x*_i within d(x*, x0) <= R of x0.  With F_{i+1} <= F_i
    and mu_i - mu_{i+1} = mu_{i+1},

        F_{i+1}(x_i) <= F_i(x*_i) + g_i / 4 <= F_i(x*_{i+1}) + g_i / 4
                     <= F_{i+1}(x*_{i+1}) + mu_{i+1} R^2 / 2 + g_i / 4,

    so g_{i+1} = g_i / 4 + mu_{i+1} R^2 / 2, which is mu_{i+1} R^2 for every
    i (in exact arithmetic).  The same chain through x* bounds the final gap
    F(x_{T-1}) - F(x*) by g_{T-1} / 4 + mu_{T-1} R^2 / 2 = (3/4) mu_{T-1} R^2,
    which lies between (3/8) and (3/4) of sqrt(Delta epsilon) when T > 2.
    That, not epsilon, is what the schedule certifies.  Runs meet epsilon
    only because the stage solves overshoot their targets.
    """
    if not 0 < epsilon < math.inf:
        raise GeometryError(f"epsilon must be positive and finite, not {epsilon!r}")
    # An infinite Delta / epsilon asks for infinitely many stages, over any
    # cap; a NaN Delta fails this test too.
    if not Delta / epsilon < math.inf:
        raise axgd.BudgetError(f"the initial gap bound Delta = {Delta:g} over epsilon = {epsilon:g} is not finite")
    if not Delta > 0.0:
        raise GeometryError(f"the initial gap bound Delta = {float(Delta)!r} must be positive, at R = {float(R)!r}")
    mu0 = Delta / (R * R)
    stages = []
    gap = Delta
    for i in range(max(2, math.ceil(math.log2(Delta / epsilon) / 2.0) + 1)):
        stages.append((mu0 * 2.0**-i, gap))
        gap = gap / 4.0 + mu0 * 2.0 ** -(i + 1) * R * R / 2.0
    delta = delta_constants(float(space.sign), float(space.sign), 2.0 * R)
    return RegularizationPlan(tuple(stages), delta)


class StageTrace(NamedTuple):
    mu_i: float
    rounds: list
    x_end: AmbientPoint

    @property
    def grad_evals(self):
        """The stage's rounds' evals, and the one gradient call that certified its radius."""
        return 1 + sum(r.grad_evals for r in self.rounds)


def _stage_problems(F, x0, plan):
    """Per stage: F_i = F + (mu_i / 2) d(., x0)^2, its target g_i / 4, and sqrt(2 g_i / sc_i).

    sc_i is the strong convexity of F_i, so the last is the distance from
    any point of F_i gap at most g_i to the stage minimizer.
    """
    for mu, gap in plan.stages:
        F_i = RegularizedObjective(F, mu, x0, plan.delta)
        yield F_i, gap / 4.0, math.sqrt(2.0 * gap / F_i.strong_convexity)


def certified_radius(F_i, x, stage):
    """|grad F_i(x)| / sc_i, which bounds d(x, x*_i): one gradient call.

    Let F_i be sc_i-strongly g-convex on a g-convex ball B that holds x and
    the stage minimizer x*_i, where grad F_i(x*_i) = 0.  With
    d = d(x, x*_i), strong convexity from x to x*_i and from x*_i to x,

        F_i(x*_i) >= F_i(x) + <grad F_i(x), Log_x x*_i> + sc_i d^2 / 2,
        F_i(x)    >= F_i(x*_i)                          + sc_i d^2 / 2,

    add up to sc_i d^2 <= <grad F_i(x), -Log_x x*_i> <= |grad F_i(x)| d, as
    |Log_x x*_i| = d.  So d <= |grad F_i(x)| / sc_i.  B is the ball on which
    sc_i is declared, the one that the bound sqrt(2 g_i / sc_i) of
    ``_stage_problems`` relies on too.  The norm is the model's metric.  A
    gradient that is not finite raises ``GeometryError`` naming ``stage``.
    """
    r = float(norm(F_i.grad_c(x.coords), F_i.space.sign)) / F_i.strong_convexity
    if not r < math.inf:  # NaN fails too
        raise GeometryError(f"stage {stage}: the gradient at the warm start is not finite")
    return r


def _stage_radius(F_i, x, eps_i, prior, stage):
    """min(prior, r), r the ``certified_radius`` at the warm start x, or None if x meets eps_i past rounding.

    With q = sc_i r^2, minimizing the first inequality of
    ``certified_radius`` over d gives F_i(x) - F_i(x*_i) <= |grad F_i(x)|^2
    / (2 sc_i) = q / 2.  When q / eps_i <= 2^-52, that is at most half an
    ulp of eps_i: x meets the target by more than a solve of it could show.
    When q / 4 rounds to 0, q / 2 is at most about 2^-1074 <= eps_i.  Both
    include the zero gradient at x*_i itself.  ``restart_plan`` refuses a
    radius whose q / 4 or q / eps_i rounds to 0, and a q near the subnormal
    range plans rounds whose line-search slacks underflow to 0.
    """
    r = certified_radius(F_i, x, stage)
    q = F_i.strong_convexity * r * r
    if not q / 4.0 > 0.0 or q / eps_i <= 2.0**-52:
        return None
    return min(prior, r)


def planned_iterations(stages, R, R_0, recenter):
    """The iterations the regularization ``stages`` certify, each planned at the radius known before the run.

    ``stages`` are ``_stage_problems``' triples.  R_0 is stage 0's
    ``_stage_radius`` at x0 (None: no round), so stage 0's plan is exact.
    A later stage is planned at min(R, sqrt(2 g_i / sc_i)), which its
    certificate can undercut: the total is then neither a lower nor an
    upper bound on the run, and a refusal by it may reject a run that would
    finish within the cap.  What holds: a stage's mu_i, L_i, sc_i and
    target do not depend on x, so its plan changes with the radius only,
    and its iteration count is nondecreasing in the radius.  A realized
    stage thus plans at most its plan at the uncertified radius
    min(d(x, x0) + R, sqrt(2 g_i / sc_i)):

    - the round count max(1, ceil(log2(sc_i R^2 / eps_i) - 1)) and every
      round radius R_k = R / 2^(k/2) grow with R;
    - round k's budget is the least t with t (t + 1) >= q = 16 L~ D^2 /
      (7 gamma_n^2 gamma_p eps_k), nondecreasing in q, with eps_k = sc_i R_k^2
      / 4 and the map constants at the frame radius r, which is R_k, or R
      on a fixed frame (there R_k / R is fixed).  From the ball centre D =
      r~, tanh r or tan r, so q is a constant times (1 + 4 r tanh r)
      cosh(r)^2 (sinh(r) / r)^2 / (gamma_n^2 gamma_p) on the hyperboloid
      and max(1, r) (tan(r) / r)^2 / cos(r)^8 on the sphere (r < pi/2):
      products of positive nondecreasing factors of r.  A fixed-frame
      round k >= 1 has D = min(2 r~, R_k / dist_lo), so q is the smaller of
      4 times that and a constant times L~ / (dist_lo^2 gamma_n^2 gamma_p),
      which is cosh(r)^4 (1 + 4 r tanh r) / (gamma_n^2 gamma_p) on the
      hyperboloid (dist_lo = 1) and max(1, r) / cos(r)^12 on the sphere
      (dist_lo = cos(r)^2); the smaller of two nondecreasing functions is
      nondecreasing.  On the hyperboloid gamma_n and gamma_p are extremes
      of the directional ratio over nested domains, the squares [-r, r]^2
      of ``geomap.deformation_constants_for``, so both are nonincreasing in
      r.

    The upper bound sqrt(2 g_i / sc_i) is not planned with on its own: on
    the sphere it can exceed pi/2, where the map constants are undefined.
    """
    total = 0
    for i, (F_i, eps_i, R_up) in enumerate(stages):
        R_i = R_0 if i == 0 else min(R, R_up)
        if R_i is not None:
            plan_i = restart_plan(F_i.space.sign, F_i.smoothness, F_i.strong_convexity, R_i, eps_i, recenter)
            total += sum(params.t for _, params in plan_i)
    return total


def plan_gconvex_via_sc(F, x0, R, epsilon, recenter=True):
    """Plan a ``solve_gconvex_via_sc`` run, or raise the error that refuses it.

    Returns ``run(trace=None)``, which follows the checked regularization
    plan and returns the final point, handing ``trace`` a ``StageTrace`` per
    stage.  Each stage's radius is decided once, by ``_stage_radius`` at its
    warm start; stage 0's here, for the refusal and the run.  A stage that
    ``_stage_radius`` ends at its warm start runs no round; every other
    stage runs, also one whose certificate already meets its target, since
    the stage solves' overshoot is what brings the final gap below epsilon
    (``make_regularization_plan``).  Each stage calls
    ``solve_strongly_gconvex`` by its module name, so that a wrapper bound
    to that name sees every stage solve.
    """
    refuse_below_floor(F, x0, epsilon)
    plan = make_regularization_plan(F.space, R, 2.0 * F.smoothness * R * R, epsilon)
    stages = list(_stage_problems(F, x0, plan))
    F_0, eps_0, R_up = stages[0]
    R_0 = _stage_radius(F_0, x0, eps_0, min(R, R_up), 0)
    _refuse_above_cap(planned_iterations(stages, R, R_0, recenter))

    def run(trace=None):
        x = x0
        for i, (F_i, eps_i, R_up) in enumerate(stages):
            R_stage = R_0 if i == 0 else _stage_radius(F_i, x, eps_i, min(x.distance_to(x0) + R, R_up), i)
            rounds = []
            if R_stage is not None:
                traced = None if trace is None else rounds.append
                x = solve_strongly_gconvex(F_i, x, R_stage, eps_i, recenter=recenter, trace=traced)
            if trace is not None:
                trace(StageTrace(F_i.mu_i, rounds, x))
        return x

    return run


def solve_gconvex_via_sc(F, x0, R, epsilon, recenter=True, trace=None):
    """Minimize a smooth g-convex F through the regularization schedule.

    The schedule starts from the smoothness bound Delta = 2 L R^2 on the
    initial gap F(x0) - F(x*).  Stage i minimizes F_i = F + (mu_i / 2)
    d(., x0)^2 with ``solve_strongly_gconvex`` from the previous output x
    to a quarter of its gap bound g_i.  It runs on a ball of radius
    min(d(x, x0) + R, sqrt(2 g_i / sc_i), |grad F_i(x)| / sc_i), sc_i the
    strong convexity of F_i: x*_i lies within R of x0, within
    sqrt(2 g_i / sc_i) of any point of F_i gap at most g_i, and within
    |grad F_i(x)| / sc_i of x (``certified_radius``).  The run is refused
    before the first stage when ``planned_iterations`` exceeds
    ``axgd.MAX_ITERATIONS``, and a stage whose radius
    ``geomap.ball_radius`` refuses (on the sphere, one reaching pi/2) by
    its ``restart_plan``, before its first round.
    A stage's rounds are kept only to pass to ``trace``.
    """
    return plan_gconvex_via_sc(F, x0, R, epsilon, recenter)(trace)
