"""Projected Riemannian gradient descent: the comparison baseline and the
high-precision optimum oracle used by the benchmark harness."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .manifolds import AmbientPoint, GeometryError, _Frozen, exp_map, log_map, norm


class RgdParams(_Frozen):
    __slots__ = ("step", "max_iters", "tol_grad", "trace_stride")

    def __init__(self, step, max_iters, tol_grad=0.0, trace_stride=1):
        if step <= 0:
            raise GeometryError("step size must be positive")
        if max_iters < 0 or trace_stride < 1:
            raise GeometryError("invalid iteration or stride settings")
        self._init(step, max_iters, tol_grad, trace_stride)


class RgdRecord(NamedTuple):
    k: int
    x: np.ndarray
    f_value: float
    grad_norm: float
    grad_evals: int


def rgd_run(F, x0, R, params, trace=None):
    """x_{k+1} = Exp_{x_k}(-step grad F(x_k)), clipped back to the R-ball.

    Iterates leaving the ball around x0 are pulled back radially along the
    geodesic from x0.  Stops when the gradient norm falls to ``tol_grad``
    (pass a negative tolerance to disable the gradient stop and always run
    the full budget) or after ``max_iters`` updates; the gradient at the
    stopping point has already been evaluated, so a start at the minimizer
    costs one call.  A gradient whose norm is not finite raises
    ``GeometryError`` naming its iteration.

    The step is a pure function of x, so once an update returns x bit for
    bit (or the gradient is exactly zero) every later iteration repeats
    this one: the run emits the remaining stride records and the final
    record of the full budget, all with the one value, and returns without
    computing them.  A record's ``grad_evals`` is then k + 1, the evals the
    certified-budget method counts, not the oracle calls made.
    """
    sign = F.space.sign
    center = x0.coords
    # Monotone threshold for the ball test avoids an arccos/arccosh per step:
    # x . cm is cos d(x, x0) on the sphere and -cosh d(x, x0) on the
    # hyperboloid, so x is outside the ball when it falls below ``rim``.
    cm = center.copy()
    if sign < 0:
        cm[-1] = -cm[-1]
        rim = -math.cosh(R)
    else:
        rim = math.cos(R)
    grad_c, value_c = F.grad_c, F.value_c
    step, last, tol, stride = params.step, params.max_iters, params.tol_grad, params.trace_stride
    x = x0.coords
    prev = x.tobytes()  # bytes, not ==, so that -0.0 and 0.0 differ as they do to the step
    for k in range(last + 1):
        g = grad_c(x)
        sq = float(g.dot(g))
        if sign < 0:
            gl = g.item(-1)
            sq -= 2.0 * gl * gl
        gn = math.sqrt(max(sq, 0.0))
        if not math.isfinite(gn):
            raise GeometryError(f"iteration {k}: the gradient norm is {gn}, not finite")
        stop = gn <= tol or k == last
        if trace is not None and (stop or k % stride == 0):
            trace(RgdRecord(k, x.copy(), float(value_c(x)), gn, k + 1))
        if stop:
            break
        if gn != 0.0:
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
                un = float(norm(u, sign))
                x = exp_map(center, (R / un) * u, sign)
            cur = x.tobytes()
            if cur != prev:
                prev = cur
                continue
        # A fixed point: iterations k + 1, ..., last would repeat iteration k.
        if trace is not None:
            f = float(value_c(x))
            for j in (*range((k // stride + 1) * stride, last, stride), last):
                trace(RgdRecord(j, x.copy(), f, gn, j + 1))
        break
    return AmbientPoint(x, F.space)


def reference_optimum(F, x0, R):
    """High-precision (x*, F(x*)) oracle for acceptance checks.

    Uses the analytic minimizer when the objective knows one, otherwise
    polishes with gradient descent at step 1/L down to a gradient norm of
    1e-12.  Wrappers that merely re-declare constants are unwrapped so the
    step size comes from the tightest valid smoothness bound.
    """
    F_ref = getattr(F, "oracle_equivalent", F)
    if F_ref.known_minimizer is not None:
        x_star = F_ref.known_minimizer
        return x_star, float(F_ref.value_c(x_star.coords))
    params = RgdParams(step=1.0 / F_ref.smoothness, max_iters=2_000_000, tol_grad=1e-12)
    x_star = rgd_run(F_ref, x0, R, params)
    g = F_ref.grad_c(x_star.coords)
    if float(norm(g, F_ref.space.sign)) > params.tol_grad:
        raise GeometryError("reference optimum search did not converge")
    return x_star, float(F_ref.value_c(x_star.coords))
