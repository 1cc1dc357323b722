"""Accelerated solver for the mapped problem on a Euclidean ball.

Approximate implicit-Euler discretization of accelerated mirror dynamics
(AXGD-style) under the relaxed convexity condition

    f(x) + (1/gamma_n) <grad f(x), y - x> <= f(y)   if the inner product <= 0,
    f(x) +    gamma_p  <grad f(x), y - x> <= f(y)   if the inner product >= 0,

with the quadratic mirror map psi = |.|^2 / 2, whose dual gradient is the
Euclidean projection onto the ball.  Each iteration runs a binary search
over the coupling weight lambda so that the accepted step satisfies

    f(x_{i+1}) - f(x_i) <= gamma_hat <grad f(x_{i+1}), x_{i+1} - x_i> + eps_hat_i

for some gamma_hat in [gamma_p, 1/gamma_n].  The slacks eps_hat_i take
an eighth of the target epsilon, and the discretization term the rest
(``iteration_budget``).  The objective ``f`` needs
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

# The share of epsilon that the line-search slacks sum to; the
# discretization term gets 1 - _SLACK_SHARE.  Accepted steps rarely use
# more than an eighth of their slack, and a smaller share buys little.
_SLACK_SHARE = 0.125


class LineSearchError(RuntimeError):
    """Line search found no accepted step; carries diagnostic context."""

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
        # Each test is written so that NaN fails it.
        if not (0 < self.gamma_n <= 1 and 0 < self.gamma_p <= 1):
            raise ValueError("gamma_n, gamma_p must lie in (0, 1]")
        if not all(0 < v < math.inf for v in (self.L_tilde, self.epsilon, self.R_tilde)):
            raise ValueError("L_tilde, epsilon, R_tilde must be finite and positive")
        if not self.t >= 1:
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
        """Per-iteration slack A_t eps / (8 (t-1) A_i); needs t >= 2, i >= 1.

        The weighted slacks sum to sum_{i<t} A_i eps_hat_i / A_t = eps / 8.
        """
        if self.t < 2:
            raise ValueError("eps_hat is vacuous for single-step runs")
        return _SLACK_SHARE * self._A_t * self.epsilon / ((self.t - 1) * self.A(i))


# Larger certified budgets come from configs no run can finish (hyperbolic
# R = 15 certifies 2.25e22 axgd iterations at epsilon = 1e-2); tests spend at
# most ~1.05e7.
MAX_ITERATIONS = 10**8


class BudgetError(ValueError):
    """A certified iteration budget above MAX_ITERATIONS."""


def ceil_budget(t):
    """Round a certified iteration count up; BudgetError above MAX_ITERATIONS."""
    if not t <= MAX_ITERATIONS:
        raise BudgetError(f"certified budget t = {t:.3g} iterations exceeds {MAX_ITERATIONS:.0e}")
    return max(1, math.ceil(t))


def iteration_budget(L_tilde, gamma_n, gamma_p, epsilon, D):
    """Least t with t (t + 1) >= 16 L_tilde D^2 / (7 gamma_n^2 gamma_p epsilon), for a start within D of x*~.

    After t iterations from x0~ the gap is at most the discretization term
    2 L_tilde |x0~ - x*~|^2 / (gamma_n^2 gamma_p t (t + 1)) plus the
    line-search slack sum_{i<t} A_i eps_hat_i / A_t = epsilon / 8
    (``SolverParams.eps_hat``).  With D >= |x0~ - x*~| and t (t + 1) >= q,
    the first term is at most 2 L_tilde D^2 / (gamma_n^2 gamma_p q) =
    7 epsilon / 8, so the gap is at most 7 epsilon / 8 + epsilon / 8 =
    epsilon: this t certifies epsilon.  D is R_tilde from the ball centre,
    where every CLI axgd run and every re-centered restart round starts,
    and at most 2 R_tilde from any start in the ball.  Budgets over
    MAX_ITERATIONS raise ``BudgetError`` (``least_budget``), also when the
    denominator of q underflows to 0, which leaves q infinite.
    """
    if not 0 < D < math.inf:
        raise ValueError(f"the start's distance bound D = {D!r} must be finite and positive")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon = {epsilon!r} must be finite and positive")
    denominator = (1.0 - _SLACK_SHARE) * gamma_n**2 * gamma_p * epsilon
    return least_budget(2.0 * L_tilde * D * D / denominator if denominator > 0.0 else math.inf)


def least_budget(q):
    """Least t >= 1 with t (t + 1) >= q; ``BudgetError`` when that t exceeds MAX_ITERATIONS.

    The float root of t^2 + t = q is settled in integers, so that its
    rounding never moves t.
    """
    t = ceil_budget(math.sqrt(q + 0.25) - 0.5)
    if t * (t + 1) < q:
        t += 1
    elif t > 1 and (t - 1) * t >= q:
        t -= 1
    return ceil_budget(t)


def params_from_constants(dc, R_tilde, epsilon, D=None):
    """SolverParams from deformation constants, with the budget t certified from within D of x*~.

    D defaults to R_tilde, which bounds the distance from the ball centre.
    """
    return SolverParams(
        L_tilde=dc.L_tilde,
        gamma_n=dc.gamma_n,
        gamma_p=dc.gamma_p,
        epsilon=epsilon,
        t=iteration_budget(dc.L_tilde, dc.gamma_n, dc.gamma_p, epsilon, R_tilde if D is None else D),
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
        # z_0 = grad psi(x_0) = x_0 for the quadratic mirror map; A_0 = 0.  No
        # step writes into an iterate, so one read-only copy serves as both.
        x0 = np.array(x0_tilde, dtype=float)
        x0.flags.writeable = False
        return cls(i=0, x_t=x0, z_t=x0, A=0.0)


def mirror_dual_grad(z, R_tilde):
    """Dual gradient of the ball-restricted quadratic mirror map: projection of one 1-D z, read C-contiguous.

    A z with an inf or NaN entry projects to NaN; a finite z whose z.z overflows is scaled first.
    """
    z = np.ascontiguousarray(z, dtype=float)
    n = math.sqrt(z.dot(z))
    if n <= R_tilde:
        return z
    if n == math.inf:
        m = float(np.abs(z).max())
        if m == math.inf:
            return np.full_like(z, math.nan)
        n = m * float(np.linalg.norm(z / m))
    return (R_tilde / n) * z


class StepCandidate(NamedTuple):
    x_next: np.ndarray
    grad_next: np.ndarray
    z_next: np.ndarray
    f_next: float
    descent_inner: float  # <grad f(x_next), x_next - x_i>


def _candidate(state, a_next, gamma_n, R_tilde, f, lam, z_ball):
    """One inner step of the discretization for a given coupling lambda.

    ``z_ball`` is ``mirror_dual_grad(state.z_t, R_tilde)``, which a line
    search projects once for all of its probes.
    """
    x_t, z_t = state.x_t, state.z_t
    step = a_next / gamma_n
    x_kept = (1.0 - lam) * x_t
    grad_chi = f.grad(x_kept + lam * z_ball)
    x_next = x_kept + lam * mirror_dual_grad(z_t - step * grad_chi, R_tilde)
    f_next, grad_next = f.value_and_grad(x_next)
    inner = float(grad_next.dot(x_next - x_t))
    return StepCandidate(x_next, grad_next, z_t - step * grad_next, f_next, inner)


class LineSearchResult(NamedTuple):
    lam: float
    gamma_hat: float
    residual: float
    probes: int
    candidate: StepCandidate


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
    A failed search raises ``LineSearchError`` naming iteration ``state.i``
    when the endpoints bracket no sign change, or when the bracket is two
    adjacent floats: within about 1075 halvings of a bracket in (0, 1].
    """
    if state.i < 1:
        raise ValueError("line search is only defined from iteration 1 on")
    if not eps_hat_i > 0:  # NaN fails too
        raise ValueError(f"iteration {state.i}: eps_hat must be positive, got {eps_hat_i!r}")
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
            return LineSearchResult(lam, end_gamma, residual, probes, cand)
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

    while True:
        lam = 0.5 * (left + right)
        if not left < lam < right:
            raise LineSearchError(
                f"iteration {state.i}: the line-search bracket collapsed to adjacent floats; smoothness or "
                "deformation constants are likely misconfigured",
                bracket=(left, right),
                residual=residual,
                iteration=state.i,
            )
        probes += 1
        cand = _candidate(state, a_next, gamma_n, R_tilde, f, lam, z_ball)
        gamma_hat, residual = _residual(cand, lam, step, A, f_curr)
        if residual <= eps_hat_i:
            return LineSearchResult(lam, gamma_hat, residual, probes, cand)
        if cand.descent_inner < 0:
            left = lam
        else:
            right = lam


class IterationRecord(NamedTuple):
    """Per-iteration trace entry pushed to the injected sink.

    ``x`` and ``x_prev`` are the solver's own read-only iterates, shared,
    not copied: a record's ``x_prev`` is the previous record's ``x``.
    """

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
    IterationRecord per iteration; the solver itself performs no I/O.  The
    start is copied once; it and every accepted iterate are read-only, so
    the records share them and the returned point is read-only too.
    """
    state = SolverState.initial(x0_tilde)
    if not np.linalg.norm(state.x_t) <= params.R_tilde + 1e-9:  # NaN fails too
        raise ValueError("start point lies outside the feasible ball")
    a, R_tilde = params.a, params.R_tilde
    cand = _candidate(state, a(1), params.gamma_n, R_tilde, f, 1.0, mirror_dual_grad(state.z_t, R_tilde))
    res, eps_hat = LineSearchResult(1.0, math.nan, math.nan, 1, cand), math.nan
    for i in range(params.t):
        if i:  # cand is still the previous step, so cand.f_next is f at state.x_t
            eps_hat = params.eps_hat(i)
            res = binary_line_search(state, params, f, eps_hat, cand.f_next)
            cand = res.candidate
        x_prev = state.x_t
        cand.x_next.flags.writeable = False
        state = SolverState(i + 1, cand.x_next, cand.z_next, state.A + a(i + 1), state.grad_evals + 2 * res.probes)
        if trace is not None:
            g = cand.grad_next
            trace(IterationRecord(i + 1, cand.x_next, x_prev, cand.f_next, math.sqrt(g.dot(g)), state.grad_evals,
                                  res.lam, res.gamma_hat, eps_hat, res.residual, res.probes))
    return state.x_t
