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
    """Where a line search starts: iteration i, the iterate x_t, the dual point z_t and A_i."""

    i: int
    x_t: np.ndarray
    z_t: np.ndarray
    A: float

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


def _probe(grad, value_and_grad, x_t, z_t, z_ball, step, lam, R_tilde):
    """One inner step of the discretization for a given coupling lambda.

    ``z_ball`` is ``mirror_dual_grad(z_t, R_tilde)``, which a line search
    projects once for all of its probes, and ``step`` is a_{i+1} / gamma_n.
    Returns x_{i+1}, f and grad f there, and <grad f(x_{i+1}), x_{i+1} - x_t>.
    """
    x_kept = (1.0 - lam) * x_t
    grad_chi = grad(x_kept + lam * z_ball)
    x_next = x_kept + lam * mirror_dual_grad(z_t - step * grad_chi, R_tilde)
    f_next, grad_next = value_and_grad(x_next)
    return x_next, f_next, grad_next, float(grad_next.dot(x_next - x_t))


class LineSearchResult(NamedTuple):
    """The accepted step: its lambda, gamma_hat, residual and probe count, and x_{i+1} with f and grad f there."""

    lam: float
    gamma_hat: float
    residual: float
    probes: int
    x_next: np.ndarray
    f_next: float
    grad_next: np.ndarray


def binary_line_search(state, params, f, eps_hat_i, f_curr):
    """Find lambda whose step satisfies the accepted-step inequality.

    ``state`` is (i, x_t, z_t, A_i): a ``SolverState``, or the plain tuple
    that ``run`` passes.  Tries the endpoints gamma_hat = 1/gamma_n then
    gamma_hat = gamma_p; if neither passes, the endpoint inner products
    bracket a sign change and bisection on lambda keeps the bracket
    endpoints' signs opposite until the residual drops below eps_hat_i.  A
    probe passes only with a finite residual: an oracle value or gradient
    that is not finite never passes.  ``f_curr`` is f at x_t.  A failed
    search raises ``LineSearchError`` naming iteration i when the endpoints
    bracket no sign change, or when the bracket is two adjacent floats:
    within about 1075 halvings of a bracket in (0, 1].
    """
    i, x_t, z_t, A = state
    if i < 1:
        raise ValueError("line search is only defined from iteration 1 on")
    if not eps_hat_i > 0:  # NaN fails too
        raise ValueError(f"iteration {i}: eps_hat must be positive, got {eps_hat_i!r}")
    gamma_n, R_tilde = params.gamma_n, params.R_tilde
    step = params.a(i + 1) / gamma_n
    z_ball = mirror_dual_grad(z_t, R_tilde)
    grad, value_and_grad = f.grad, f.value_and_grad
    end_gamma = 1.0 / gamma_n
    lam = step / (A * end_gamma + step)
    probes = 0
    while True:
        probes += 1
        x_next, f_next, grad_next, inner = _probe(grad, value_and_grad, x_t, z_t, z_ball, step, lam, R_tilde)
        # gamma_hat(lam), the inverse of lam = step / (A gamma_hat + step).
        gamma_hat = step * (1.0 - lam) / (A * lam)
        residual = -gamma_hat * inner + (f_next - f_curr)
        if residual <= eps_hat_i and math.isfinite(residual):
            return LineSearchResult(
                lam, end_gamma if probes <= 2 else gamma_hat, residual, probes, x_next, f_next, grad_next
            )
        if probes == 1:  # then the other endpoint
            left, s_lo = lam, inner
            end_gamma = params.gamma_p
            lam = step / (A * end_gamma + step)
            continue
        if probes == 2:
            if not (s_lo < 0 < inner):
                raise LineSearchError(
                    f"iteration {i}: endpoint inner products do not bracket a sign change; the relaxed "
                    "convexity condition or the declared constants are violated",
                    bracket=(left, lam),
                    residual=residual,
                    iteration=i,
                )
            right = lam
        elif inner < 0:
            left = lam
        else:
            right = lam
        lam = 0.5 * (left + right)
        if not left < lam < right:
            raise LineSearchError(
                f"iteration {i}: the line-search bracket collapsed to adjacent floats; smoothness or "
                "deformation constants are likely misconfigured",
                bracket=(left, right),
                residual=residual,
                iteration=i,
            )


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
    _, x_t, z_t, A = SolverState.initial(x0_tilde)
    R_tilde = params.R_tilde
    if not np.linalg.norm(x_t) <= R_tilde + 1e-9:  # NaN fails too
        raise ValueError("start point lies outside the feasible ball")
    a, eps_hat_of, gamma_n = params.a, params.eps_hat, params.gamma_n
    a_next, evals = a(1), 0
    x_next, f_next, grad_next, _ = _probe(
        f.grad, f.value_and_grad, x_t, z_t, mirror_dual_grad(z_t, R_tilde), a_next / gamma_n, 1.0, R_tilde
    )
    lam, gamma_hat, residual, probes, eps_hat = 1.0, math.nan, math.nan, 1, math.nan
    for i in range(params.t):
        if i:  # f_next is still f at x_t
            eps_hat = eps_hat_of(i)
            res = binary_line_search((i, x_t, z_t, A), params, f, eps_hat, f_next)
            lam, gamma_hat, residual, probes, x_next, f_next, grad_next = res
            a_next = a(i + 1)
        x_prev, x_t = x_t, x_next
        x_t.flags.writeable = False
        z_t = z_t - (a_next / gamma_n) * grad_next
        A += a_next
        evals += 2 * probes
        if trace is not None:
            trace(IterationRecord(i + 1, x_t, x_prev, f_next, math.sqrt(grad_next.dot(grad_next)), evals,
                                  lam, gamma_hat, eps_hat, residual, probes))
    return x_t
