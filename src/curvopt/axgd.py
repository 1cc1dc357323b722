"""Accelerated solver for the mapped problem on a Euclidean ball.

Approximate implicit-Euler discretization of accelerated mirror dynamics
(AXGD-style) under the relaxed convexity condition

    f(x) + (1/gamma_n) <grad f(x), y - x> <= f(y)   if the inner product <= 0,
    f(x) +    gamma_p  <grad f(x), y - x> <= f(y)   if the inner product >= 0,

with the quadratic mirror map psi = |.|^2 / 2, whose dual gradient is the
Euclidean projection onto the ball.  Each iteration runs a binary search
over the coupling weight lambda so that the accepted step satisfies

    f(x_{i+1}) - f(x_i) <= gamma_hat <grad f(x_{i+1}), x_{i+1} - x_i> + eps_hat_i

for some gamma_hat in [gamma_p, 1/gamma_n].  The objective ``f`` needs
``grad(xt) -> ndarray`` and ``value_and_grad(xt) -> (float, ndarray)``, each
taking one 1-D point xt: each probe reads the gradient at the coupling
point and both the value and the gradient at the candidate point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class LineSearchError(RuntimeError):
    """Line search exhausted its probe budget; carries diagnostic context."""

    def __init__(self, message, bracket=None, residual=None, iteration=None):
        super().__init__(message)
        self.bracket = bracket
        self.residual = residual
        self.iteration = iteration


@dataclass(frozen=True)
class SolverParams:
    """Schedule constants: a_i = i gamma_n^2 gamma_p / (2 L_tilde)."""

    L_tilde: float
    gamma_n: float
    gamma_p: float
    epsilon: float
    t: int
    R_tilde: float

    def __post_init__(self):
        if not (0 < self.gamma_n <= 1 and 0 < self.gamma_p <= 1):
            raise ValueError("gamma_n, gamma_p must lie in (0, 1]")
        if self.L_tilde <= 0 or self.epsilon <= 0 or self.R_tilde <= 0:
            raise ValueError("L_tilde, epsilon, R_tilde must be positive")
        if self.t < 1:
            raise ValueError("need at least one iteration")

    @cached_property
    def rate(self):
        return self.gamma_n**2 * self.gamma_p / (2.0 * self.L_tilde)

    @cached_property
    def _A_t(self):
        return self.A(self.t)

    def a(self, i):
        return i * self.rate

    def A(self, i):
        return i * (i + 1) * self.rate / 2.0

    def eps_hat(self, i):
        """Per-iteration slack A_t eps / (2 (t-1) A_i); needs t >= 2, i >= 1."""
        if self.t < 2:
            raise ValueError("eps_hat is vacuous for single-step runs")
        return self._A_t * self.epsilon / (2.0 * (self.t - 1) * self.A(i))


# Larger certified budgets come from configs no run can finish (hyperbolic
# R = 15 certifies 5.4e22 axgd iterations at epsilon = 1e-2); tests spend at
# most ~1.05e7.
MAX_ITERATIONS = 10**8


class BudgetError(ValueError):
    """A certified iteration budget above MAX_ITERATIONS."""


def ceil_budget(t):
    """Round a certified iteration count up; BudgetError above MAX_ITERATIONS."""
    if not t <= MAX_ITERATIONS:
        raise BudgetError(f"certified budget t = {t:.3g} iterations exceeds {MAX_ITERATIONS:.0e}")
    return max(1, math.ceil(t))


def iteration_budget(L_tilde, gamma_n, gamma_p, epsilon, R_tilde):
    """Iterations sufficient for an epsilon-minimizer from the diameter bound.

    t = ceil(sqrt(2 L_tilde (2 R_tilde)^2 / (gamma_n^2 gamma_p epsilon)));
    the start-to-optimum distance is bounded by the ball diameter.
    """
    t = math.sqrt(2.0 * L_tilde * (2.0 * R_tilde) ** 2 / (gamma_n**2 * gamma_p * epsilon))
    return ceil_budget(t)


def params_from_constants(dc, R_tilde, epsilon):
    """SolverParams from deformation constants, with the certified budget t."""
    return SolverParams(
        L_tilde=dc.L_tilde,
        gamma_n=dc.gamma_n,
        gamma_p=dc.gamma_p,
        epsilon=epsilon,
        t=iteration_budget(dc.L_tilde, dc.gamma_n, dc.gamma_p, epsilon, R_tilde),
        R_tilde=R_tilde,
    )


class SolverState(NamedTuple):
    i: int
    x_t: np.ndarray
    z_t: np.ndarray
    A: float
    grad_evals: int = 0

    @classmethod
    def initial(cls, x0_tilde):
        x0 = np.asarray(x0_tilde, dtype=float)
        # z_0 = grad psi(x_0) = x_0 for the quadratic mirror map; A_0 = 0.
        return cls(i=0, x_t=x0.copy(), z_t=x0.copy(), A=0.0)


def mirror_dual_grad(z, R_tilde):
    """Dual gradient of the ball-restricted quadratic mirror map: projection of one 1-D z."""
    z = np.asarray(z, dtype=float)
    n = math.sqrt(z.dot(z))
    if n <= R_tilde:
        return z
    return (R_tilde / n) * z


class StepCandidate(NamedTuple):
    lam: float
    x_next: np.ndarray
    grad_next: np.ndarray
    z_next: np.ndarray
    f_next: float
    descent_inner: float  # <grad f(x_next), x_next - x_i>


def _candidate(state, a_next, gamma_n, R_tilde, f, lam, z_ball=None):
    """One inner step of the discretization for a given coupling lambda.

    ``z_ball`` is ``mirror_dual_grad(state.z_t, R_tilde)``, which a line
    search projects once for all of its probes.
    """
    x_t, z_t = state.x_t, state.z_t
    if z_ball is None:
        z_ball = mirror_dual_grad(z_t, R_tilde)
    step = a_next / gamma_n
    x_kept = (1.0 - lam) * x_t
    grad_chi = f.grad(x_kept + lam * z_ball)
    x_next = x_kept + lam * mirror_dual_grad(z_t - step * grad_chi, R_tilde)
    f_next, grad_next = f.value_and_grad(x_next)
    inner = float(grad_next.dot(x_next - x_t))
    return StepCandidate(lam, x_next, grad_next, z_t - step * grad_next, f_next, inner)


class LineSearchResult(NamedTuple):
    lam: float
    gamma_hat: float
    residual: float
    probes: int
    candidate: StepCandidate
    eps_hat: float


def probe_bound(params, i, eps_hat):
    """Probe-count bound 4 log2(L~ R~ i / (gamma_n eps_hat)) + 4, floored at 4."""
    arg = params.L_tilde * params.R_tilde * i / (params.gamma_n * eps_hat)
    return 4.0 * math.log2(max(arg, 1.0)) + 4.0


def _residual(cand, lam, step, A, f_curr):
    """gamma_hat(lam), the inverse of lam = step / (A gamma_hat + step), and the residual."""
    gamma_hat = step * (1.0 - lam) / (A * lam)
    return gamma_hat, -gamma_hat * cand.descent_inner + (cand.f_next - f_curr)


def binary_line_search(state, params, f, eps_hat_i, f_curr):
    """Find lambda whose step satisfies the accepted-step inequality.

    Tries the endpoints gamma_hat = 1/gamma_n then gamma_hat = gamma_p; if
    neither passes, the endpoint inner products bracket a sign change and
    bisection on lambda keeps the bracket endpoints' signs opposite until
    the residual drops below eps_hat_i.  ``f_curr`` is f at ``state.x_t``.
    A failed search raises ``LineSearchError`` naming iteration ``state.i``.
    """
    if state.i < 1:
        raise ValueError("line search is only defined from iteration 1 on")
    if eps_hat_i <= 0:
        raise ValueError("eps_hat must be positive")
    A, gamma_n, R_tilde = state.A, params.gamma_n, params.R_tilde
    a_next = params.a(state.i + 1)
    step = a_next / gamma_n
    z_ball = mirror_dual_grad(state.z_t, R_tilde)
    ends = []
    for probes, end_gamma in enumerate((1.0 / gamma_n, params.gamma_p), 1):
        lam = step / (A * end_gamma + step)
        cand = _candidate(state, a_next, gamma_n, R_tilde, f, lam, z_ball)
        residual = _residual(cand, lam, step, A, f_curr)[1]
        if residual <= eps_hat_i:
            return LineSearchResult(lam, end_gamma, residual, probes, cand, eps_hat_i)
        ends.append((lam, cand.descent_inner))
    (left, s_lo), (right, s_hi) = ends
    if not (s_lo < 0 < s_hi):
        raise LineSearchError(
            f"iteration {state.i}: endpoint inner products do not bracket a sign change; the relaxed "
            "convexity condition or the declared constants are violated",
            bracket=(left, right),
            residual=residual,
            iteration=state.i,
        )

    cap = max(8, int(math.ceil(4.0 * probe_bound(params, state.i, eps_hat_i))))
    while probes < cap:
        lam = 0.5 * (left + right)
        probes += 1
        cand = _candidate(state, a_next, gamma_n, R_tilde, f, lam, z_ball)
        gamma_hat, residual = _residual(cand, lam, step, A, f_curr)
        if residual <= eps_hat_i:
            return LineSearchResult(lam, gamma_hat, residual, probes, cand, eps_hat_i)
        if cand.descent_inner < 0:
            left = lam
        else:
            right = lam
    raise LineSearchError(
        f"iteration {state.i}: line-search probe budget exhausted; smoothness or deformation "
        "constants are likely misconfigured",
        bracket=(left, right),
        residual=residual,
        iteration=state.i,
    )


class IterationRecord(NamedTuple):
    """Per-iteration trace entry pushed to the injected sink."""

    i: int
    x: np.ndarray
    x_prev: np.ndarray
    f_value: float
    grad_norm: float
    grad_evals: int
    lam: float
    gamma_hat: float
    eps_hat: float
    residual: float
    probes: int


def run(f, params, x0_tilde, trace=None):
    """Run t iterations from x0 and return the final ball coordinates.

    The first iteration is forced to lambda = 1 (it does not depend on
    gamma_hat since A_0 = 0); later iterations use the binary line search
    with slack eps_hat_i.  The trace sink, if given, receives one
    IterationRecord per iteration; the solver itself performs no I/O.
    """
    x0 = np.asarray(x0_tilde, dtype=float)
    if not np.linalg.norm(x0) <= params.R_tilde + 1e-9:  # NaN fails too
        raise ValueError("start point lies outside the feasible ball")
    a, eps_hat = params.a, params.eps_hat
    state = SolverState.initial(x0)
    cand = _candidate(state, a(1), params.gamma_n, params.R_tilde, f, 1.0)
    res = LineSearchResult(1.0, math.nan, math.nan, 1, cand, math.nan)
    for i in range(params.t):
        if i:  # cand is still the previous step, so cand.f_next is f at state.x_t
            res = binary_line_search(state, params, f, eps_hat(i), cand.f_next)
            cand = res.candidate
        x_prev = state.x_t
        state = SolverState(i + 1, cand.x_next, cand.z_next, state.A + a(i + 1), state.grad_evals + 2 * res.probes)
        if trace is not None:
            g = cand.grad_next
            trace(IterationRecord(
                i + 1, cand.x_next.copy(), x_prev.copy(), cand.f_next, math.sqrt(g.dot(g)), state.grad_evals,
                res.lam, res.gamma_hat, res.eps_hat, res.residual, res.probes,
            ))
    return state.x_t
