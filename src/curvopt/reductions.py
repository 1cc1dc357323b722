"""Black-box reductions between the g-convex and strongly g-convex regimes.

``solve_strongly_gconvex`` runs the accelerated g-convex solver in restart
rounds: each round targets a gap of mu R_k^2 / 4, which halves the squared
distance to the optimum and lets the next round run on a ball of radius
R_k / sqrt(2), optionally re-centering the geodesic map there.

``solve_gconvex_via_sc`` goes the other way: it minimizes the regularized
objectives F + (mu_i / 2) d(., x0)^2 for a geometrically decreasing mu_i,
warm-starting each stage at the previous output, with stage accuracies set
from a running upper bound on the stage-initial gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import axgd
from .geomap import deformation_constants, from_ball, make_frame, to_ball
from .manifolds import SPHERICAL, AmbientPoint, GeometryError
from .objectives import DeltaConstants, MappedObjective, delta_constants, regularized


def restart_rounds(mu, R, epsilon):
    """Restart rounds: each targets a gap of mu R_k^2 / 4, halving d(., x*)^2."""
    if mu <= 0:
        raise GeometryError("restart reduction needs strictly positive strong convexity")
    if epsilon <= 0 or R <= 0:
        raise GeometryError("epsilon and R must be positive")
    return max(1, math.ceil(math.log2(mu * R * R / epsilon) - 1.0))


@dataclass
class RoundTrace:
    round: int
    frame: object
    R_bound: float
    eps_round: float
    params: axgd.SolverParams
    records: list
    x_end: AmbientPoint

    @property
    def grad_evals(self):
        return self.records[-1].grad_evals if self.records else 0


def solve_strongly_gconvex(F, x0, R, epsilon, recenter=True, trace=None):
    """Minimize a declared strongly g-convex F to gap <= epsilon.

    ``R`` bounds the distance from x0 to the minimizer.  With ``recenter``
    the geodesic map is rebuilt at each round's output with the radius
    shrunk by 1/sqrt(2), which requires F to be evaluable slightly outside
    the original ball.
    """
    mu = F.strong_convexity
    rounds = restart_rounds(mu, R, epsilon)
    fixed_frame = None if recenter else make_frame(x0, R)
    x = x0
    for k in range(rounds):
        R_k = R / 2 ** (k / 2.0)
        eps_k = mu * R_k * R_k / 4.0
        if recenter:
            frame = make_frame(x, R_k)
            start = np.zeros(frame.d)
        else:
            frame = fixed_frame
            start = to_ball(frame, x)
        dc = deformation_constants(frame, F.smoothness)
        params = axgd.params_from_constants(dc, frame.R_tilde, eps_k)
        records = []
        xt = axgd.run(MappedObjective(F, frame), params, start, trace=records.append)
        x = AmbientPoint(from_ball(frame, xt), F.space)
        if trace is not None:
            trace(RoundTrace(k, frame, R_k, eps_k, params, records, x))
    return x


@dataclass(frozen=True)
class RegularizationPlan:
    """Stage schedule mu_i = mu0 / 2^i over T stages."""

    mu0: float
    T: int
    delta: DeltaConstants

    def __post_init__(self):
        if self.T < 2:
            raise GeometryError("the regularization schedule has at least two stages")

    def mu(self, i):
        return self.mu0 * 2.0**-i


def make_regularization_plan(space, R, Delta, epsilon):
    if Delta <= 0 or epsilon <= 0:
        raise GeometryError("Delta and epsilon must be positive")
    T = max(2, math.ceil(math.log2(Delta / epsilon) / 2.0) + 1)
    delta = delta_constants(float(space.sign), float(space.sign), 2.0 * R)
    return RegularizationPlan(mu0=Delta / (R * R), T=T, delta=delta)


@dataclass
class StageTrace:
    stage: int
    mu_i: float
    eps_stage: float
    R_stage: float
    rounds: list
    x_end: AmbientPoint

    @property
    def grad_evals(self):
        return sum(r.grad_evals for r in self.rounds)


def solve_gconvex_via_sc(F, x0, R, epsilon, Delta=None, recenter=True, trace=None):
    """Minimize a smooth g-convex F through the regularization schedule.

    ``Delta`` bounds the initial gap F(x0) - F(x*); when omitted the
    smoothness bound 2 L R^2 is used.  Stage i minimizes
    F + (mu_i / 2) d(., x0)^2 to a quarter of the running gap bound.
    """
    if Delta is None:
        Delta = 2.0 * F.smoothness * R * R
    plan = make_regularization_plan(F.space, R, Delta, epsilon)
    gap_bound = Delta
    x = x0
    for i in range(plan.T):
        mu_i = plan.mu(i)
        F_i = regularized(F, mu_i, x0, plan.delta)
        eps_stage = gap_bound / 4.0
        # The stage minimizer is no farther from x0 than x* (<= R), so it
        # lies within d(x, x0) + R of the warm start; strong convexity of
        # the regularized objective gives a second, often sharper bound.
        R_stage = min(
            x.distance_to(x0) + R,
            math.sqrt(2.0 * gap_bound / F_i.strong_convexity),
        )
        if F.space.sign == SPHERICAL and R_stage >= math.pi / 2:
            raise GeometryError(
                "stage ball cannot stay inside an open hemisphere; reduce R"
            )
        rounds = []
        x = solve_strongly_gconvex(
            F_i, x, R_stage, eps_stage, recenter=recenter, trace=rounds.append
        )
        if trace is not None:
            trace(StageTrace(i, mu_i, eps_stage, R_stage, rounds, x))
        gap_bound = gap_bound / 4.0 + plan.mu(i + 1) * R * R / 2.0
    return x
