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
``grad(xt) -> ndarray`` and ``value_and_grad(xt) -> (float, ndarray)``: each
probe reads the gradient at the coupling point and both the value and the
gradient at the candidate point.  ``value(xt) -> float`` is read only when
``binary_line_search`` is not given the current value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Schedule constants: a_i = i sigma gamma_n^2 gamma_p / (2 L_tilde)."""

    L_tilde: float
    gamma_n: float
    gamma_p: float
    epsilon: float
    t: int
    R_tilde: float
    sigma: float = 1.0

    def __post_init__(self):
        if not (0 < self.gamma_n <= 1 and 0 < self.gamma_p <= 1):
            raise ValueError("gamma_n, gamma_p must lie in (0, 1]")
        if self.L_tilde <= 0 or self.epsilon <= 0 or self.R_tilde <= 0:
            raise ValueError("L_tilde, epsilon, R_tilde must be positive")
        if self.t < 1:
            raise ValueError("need at least one iteration")

    @property
    def rate(self):
        return self.sigma * self.gamma_n**2 * self.gamma_p / (2.0 * self.L_tilde)

    def a(self, i):
        return i * self.rate

    def A(self, i):
        return i * (i + 1) * self.rate / 2.0

    def eps_hat(self, i):
        """Per-iteration slack A_t eps / (2 (t-1) A_i); needs t >= 2, i >= 1."""
        if self.t < 2:
            raise ValueError("eps_hat is vacuous for single-step runs")
        return self.A(self.t) * self.epsilon / (2.0 * (self.t - 1) * self.A(i))


# Larger certified budgets come from configs no run can finish (hyperbolic
# R = 20 certifies 2.4e49 axgd iterations); tests spend at most ~1.05e7.
MAX_ITERATIONS = 10**8


def ceil_budget(t):
    """Round a certified iteration count up; ValueError above MAX_ITERATIONS."""
    if not t <= MAX_ITERATIONS:
        raise ValueError(f"certified budget t = {t:.3g} iterations exceeds {MAX_ITERATIONS:.0e}")
    return max(1, math.ceil(t))


def iteration_budget(L_tilde, gamma_n, gamma_p, epsilon, R_tilde, sigma=1.0):
    """Iterations sufficient for an epsilon-minimizer from the diameter bound.

    t = ceil(sqrt(2 L_tilde (2 R_tilde)^2 / (gamma_n^2 gamma_p epsilon)));
    the start-to-optimum distance is bounded by the ball diameter.
    """
    t = math.sqrt(
        2.0 * L_tilde * (2.0 * R_tilde) ** 2 / (sigma * gamma_n**2 * gamma_p * epsilon)
    )
    return ceil_budget(t)


def params_from_constants(dc, R_tilde, epsilon, t=None, sigma=1.0):
    """SolverParams from deformation constants, auto-deriving t if omitted."""
    if t is None:
        t = iteration_budget(dc.L_tilde, dc.gamma_n, dc.gamma_p, epsilon, R_tilde, sigma)
    return SolverParams(
        L_tilde=dc.L_tilde,
        gamma_n=dc.gamma_n,
        gamma_p=dc.gamma_p,
        epsilon=epsilon,
        t=t,
        R_tilde=R_tilde,
        sigma=sigma,
    )


@dataclass
class SolverState:
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


@dataclass
class StepCandidate:
    lam: float
    chi: np.ndarray
    grad_chi: np.ndarray
    x_next: np.ndarray
    grad_next: np.ndarray
    z_next: np.ndarray
    f_next: float
    descent_inner: float  # <grad f(x_next), x_next - x_i>


def _candidate(state, a_next, gamma_n, R_tilde, f, lam):
    """One inner step of the discretization for a given coupling lambda."""
    step = a_next / gamma_n
    chi = (1.0 - lam) * state.x_t + lam * mirror_dual_grad(state.z_t, R_tilde)
    grad_chi = f.grad(chi)
    zeta = state.z_t - step * grad_chi
    x_next = (1.0 - lam) * state.x_t + lam * mirror_dual_grad(zeta, R_tilde)
    f_next, grad_next = f.value_and_grad(x_next)
    z_next = state.z_t - step * grad_next
    inner = float(grad_next.dot(x_next - state.x_t))
    return StepCandidate(lam, chi, grad_chi, x_next, grad_next, z_next, f_next, inner)


def axgd_step(state, params, f, lam):
    """Advance one iteration with a fixed lambda; two gradient evaluations."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    a_next = params.a(state.i + 1)
    cand = _candidate(state, a_next, params.gamma_n, params.R_tilde, f, lam)
    new = SolverState(
        i=state.i + 1,
        x_t=cand.x_next,
        z_t=cand.z_next,
        A=state.A + a_next,
        grad_evals=state.grad_evals + 2,
    )
    return new, cand


@dataclass
class LineSearchResult:
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


def binary_line_search(state, params, f, eps_hat_i, f_curr=None):
    """Find lambda whose step satisfies the accepted-step inequality.

    Tries the endpoints gamma_hat = 1/gamma_n then gamma_hat = gamma_p; if
    neither passes, the endpoint inner products bracket a sign change and
    bisection on lambda keeps the bracket endpoints' signs opposite until
    the residual drops below eps_hat_i.
    """
    if state.i < 1:
        raise ValueError("line search is only defined from iteration 1 on")
    if eps_hat_i <= 0:
        raise ValueError("eps_hat must be positive")
    a_next = params.a(state.i + 1)
    step = a_next / params.gamma_n

    def lam_of(gamma_hat):
        return step / (state.A * gamma_hat + step)

    def gamma_of(lam):
        return step * (1.0 - lam) / (state.A * lam)

    if f_curr is None:
        f_curr = f.value(state.x_t)

    probes = 0
    cap = max(8, int(math.ceil(4.0 * probe_bound(params, state.i, eps_hat_i))))

    def probe(lam):
        nonlocal probes
        probes += 1
        cand = _candidate(state, a_next, params.gamma_n, params.R_tilde, f, lam)
        residual = -gamma_of(lam) * cand.descent_inner + (cand.f_next - f_curr)
        return cand, residual

    lo = lam_of(1.0 / params.gamma_n)
    hi = lam_of(params.gamma_p)

    cand, residual = probe(lo)
    if residual <= eps_hat_i:
        return LineSearchResult(lo, 1.0 / params.gamma_n, residual, probes, cand, eps_hat_i)
    s_lo = cand.descent_inner

    cand, residual = probe(hi)
    if residual <= eps_hat_i:
        return LineSearchResult(hi, params.gamma_p, residual, probes, cand, eps_hat_i)
    s_hi = cand.descent_inner

    if not (s_lo < 0 < s_hi):
        raise LineSearchError(
            "endpoint inner products do not bracket a sign change; the relaxed "
            "convexity condition or the declared constants are violated",
            bracket=(lo, hi),
            residual=residual,
            iteration=state.i,
        )

    left, right = lo, hi
    while probes < cap:
        lam = 0.5 * (left + right)
        cand, residual = probe(lam)
        if residual <= eps_hat_i:
            return LineSearchResult(lam, gamma_of(lam), residual, probes, cand, eps_hat_i)
        if cand.descent_inner < 0:
            left = lam
        else:
            right = lam
    raise LineSearchError(
        "line-search probe budget exhausted; smoothness or deformation "
        "constants are likely misconfigured",
        bracket=(left, right),
        residual=residual,
        iteration=state.i,
    )


@dataclass
class IterationRecord:
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
    if np.linalg.norm(x0) > params.R_tilde + 1e-9:
        raise ValueError("start point lies outside the feasible ball")
    state = SolverState.initial(x0)

    state, cand = axgd_step(state, params, f, 1.0)
    if trace is not None:
        trace(
            IterationRecord(
                i=1,
                x=state.x_t.copy(),
                x_prev=x0.copy(),
                f_value=cand.f_next,
                grad_norm=math.sqrt(cand.grad_next.dot(cand.grad_next)),
                grad_evals=state.grad_evals,
                lam=1.0,
                gamma_hat=math.nan,
                eps_hat=math.nan,
                residual=math.nan,
                probes=1,
            )
        )

    f_curr = cand.f_next
    for i in range(1, params.t):
        eps_hat_i = params.eps_hat(i)
        try:
            res = binary_line_search(state, params, f, eps_hat_i, f_curr=f_curr)
        except LineSearchError as err:
            raise LineSearchError(
                f"iteration {i}: {err}", err.bracket, err.residual, i
            ) from err
        cand = res.candidate
        x_prev = state.x_t
        state = SolverState(
            i=state.i + 1,
            x_t=cand.x_next,
            z_t=cand.z_next,
            A=state.A + params.a(state.i + 1),
            grad_evals=state.grad_evals + 2 * res.probes,
        )
        if trace is not None:
            trace(
                IterationRecord(
                    i=state.i,
                    x=state.x_t.copy(),
                    x_prev=x_prev.copy(),
                    f_value=cand.f_next,
                    grad_norm=math.sqrt(cand.grad_next.dot(cand.grad_next)),
                    grad_evals=state.grad_evals,
                    lam=res.lam,
                    gamma_hat=res.gamma_hat,
                    eps_hat=res.eps_hat,
                    residual=res.residual,
                    probes=res.probes,
                )
            )
        f_curr = cand.f_next
    return state.x_t
