"""Benchmark harness and CLI.

Subcommands:

  bench run    --config FILE [--solver S] [--epsilon E] [--seed N] [--output F]
  bench sweep  --config FILE [--solver S] [--seed N] --output-dir DIR
               (--epsilons 1e-2,1e-3,... | --conditions 10,100,...)
  bench verify [--samples N] [--seed N]

Config files are flat ``key=value`` lines with ``#`` comments; CLI flags
override file values.  ``_plan`` plans each run once and returns its
solve.  With an output, the run streams one CSV row per traced iteration,
as it is traced, to a file that replaces its output when the run ends (a
run stopped by SIGTERM exits 143 and removes that file):

  iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns

Runs are deterministic for a fixed seed; wall_ns is written as 0 unless
``timing=true`` is set, so that repeated runs stay byte-identical.
Solvers are run for the iteration budget their declared regime certifies
(the accelerated budget for g-convex targets, the linear-convergence
budget for strongly convex ones), and reported gradient-evaluation counts
are the evaluations actually spent (for rgd past an exact fixed point, the
evaluations of the certified-budget method; see ``baselines.rgd_run``);
the rows of a reduction run over all its rounds, their gaps taken on the
instance objective (a ``reduce_gc`` stage that runs no round gives one
row at its point).  A sweep varies epsilon or the declared condition
ratio L/mu over one config, plans every point before the first solve, and
fits the exponent of the evaluation counts against 1/epsilon or L/mu.
"""

import argparse
import math
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import axgd
from .baselines import RgdParams, reference_optimum, rgd_run
from .geomap import ball_radius, deformation_constants, from_ball, make_frame
from .manifolds import (
    HYPERBOLIC,
    SPHERICAL,
    AmbientPoint,
    CurvatureClass,
    GeometryError,
    distance,
    pole,
    random_in_ball,
)
from .objectives import FrechetObjective, MappedObjective, delta_constants, load_anchors, with_constants
from .reductions import plan_gconvex_via_sc, plan_strongly_gconvex, refuse_below_floor

SOLVERS = ("axgd", "rgd", "restart_sc", "reduce_gc")
CSV_HEADER = "iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns"
DEFAULT_ANCHOR_COUNT = 5  # drawn when neither anchor_count nor anchors_file is set
# d, anchor_count and ``verify --samples`` size float64 arrays linearly, so
# a typo such as anchor_count = 1000000000 would ask numpy for 24 GB.  They
# are capped so that what the program holds at once stays within one
# budget, counted as 8 bytes a coordinate: a run holds up to 64 (d+1)-vectors
# and 16 copies of the (anchor_count, d+1) anchor matrix, plus 1 KiB of
# Python objects per anchor point; a verify cell holds up to 32 arrays of
# (samples, 11) floats, 11 being the largest checked dimension plus one.
# These are upper bounds: building an instance peaked at about 27 vectors,
# 5 anchor copies and 300 bytes per point under tracemalloc, and a verify
# cell at about 12 arrays.  A run streams its CSV rows and holds none, but
# a traced reduction holds the iteration records of one round (restart_sc)
# or stage (reduce_gc), a d-vector each (a record's x_prev is the previous
# record's x), which no size cap can bound.
MEMORY_BUDGET = 2**30
VECTOR_BYTES, ANCHOR_COORD_BYTES, POINT_BYTES, SAMPLE_BYTES = 64 * 8, 16 * 8, 1024, 32 * 8 * 11
MAX_VERIFY_SAMPLES = MEMORY_BUDGET // SAMPLE_BYTES


def max_d(anchor_count):
    """Largest d whose run with ``anchor_count`` anchors fits MEMORY_BUDGET."""
    per_coord = VECTOR_BYTES + anchor_count * ANCHOR_COORD_BYTES
    return (MEMORY_BUDGET - anchor_count * POINT_BYTES) // per_coord - 1


def max_anchor_count(d):
    """Largest anchor count whose run at dimension d fits MEMORY_BUDGET."""
    return (MEMORY_BUDGET - (d + 1) * VECTOR_BYTES) // ((d + 1) * ANCHOR_COORD_BYTES + POINT_BYTES)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    manifold: str = "hyperbolic"
    d: int = 2
    curvature: float = -1.0
    R: float = 1.0
    anchors_file: str | None = None
    anchor_count: int | None = None
    weights: str = "equal"
    condition: float | None = None
    treat_gconvex: bool = False
    solver: str = "axgd"
    epsilon: float = 1e-4
    seed: int = 0
    output: str | None = None
    timing: bool = False

    def validate(self):
        if self.manifold not in ("hyperbolic", "spherical"):
            raise ConfigError(f"manifold: unknown value {self.manifold!r}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"solver: unknown value {self.solver!r}")
        if self.d < 1:
            raise ConfigError("d: must be a positive integer")
        if self.anchor_count is not None and self.anchor_count < 1:
            raise ConfigError("anchor_count: must be a positive integer")
        # d is refused with the default anchor count, or with one when the count is set or a file's.
        count = DEFAULT_ANCHOR_COUNT if self.anchor_count is None and not self.anchors_file else 1
        if self.d > max_d(count):
            raise ConfigError(
                f"d: {self.d} exceeds {max_d(count)}, the largest with {count} anchor(s) "
                f"within the {MEMORY_BUDGET >> 30} GiB memory budget"
            )
        if self.anchor_count is not None and self.anchor_count > max_anchor_count(self.d):
            raise ConfigError(
                f"anchor_count: {self.anchor_count} exceeds {max_anchor_count(self.d)}, the most "
                f"at d = {self.d} within the {MEMORY_BUDGET >> 30} GiB memory budget"
            )
        if self.seed < 0:
            raise ConfigError("seed: must be a non-negative integer")
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon: must be positive")
        sign = SPHERICAL if self.manifold == "spherical" else HYPERBOLIC
        if self.curvature * sign <= 0:
            raise ConfigError("curvature: sign must match the manifold")
        R = math.sqrt(abs(self.curvature)) * self.R
        try:
            ball_radius(sign, R)
        except GeometryError as err:
            raise ConfigError(f"R: on the unit-curvature model, {err}") from None
        if self.solver == "reduce_gc":  # its regularizer's constants hold on diameter 2R
            _refuse_reach(sign, 2.0 * R, f"R: reduce_gc regularizes over the reach 2R = {2.0 * R:.6g}")
        if self.weights not in ("equal", "random"):
            raise ConfigError(f"weights: unknown value {self.weights!r}")
        if self.condition is not None and self.condition <= 0:
            raise ConfigError("condition: must be positive")
        return self


def _refuse_reach(sign, reach, what):
    """Raise ``ConfigError`` starting ``what`` when the squared distance has no constants over ``reach``."""
    try:
        delta_constants(float(sign), float(sign), reach)
    except GeometryError as err:
        raise ConfigError(f"{what} on the unit-curvature model, and {err}") from None


def _cast(kind, text):
    if kind is not bool:
        return kind(text)
    value = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}.get(text.lower())
    if value is None:
        raise ValueError(f"expected a boolean, got {text!r}")
    return value


def _set(cfg, key, text, where):
    """Set ``cfg.key`` from ``text`` cast to its declared type, ``''``/``none`` unsetting an ``X | None`` key."""
    declared = ExperimentConfig.__dataclass_fields__[key].type
    kind, *unset = getattr(declared, "__args__", (declared,))  # X | None gives X and [NoneType]
    try:
        value = None if unset and text.lower() in ("", "none") else _cast(kind, text)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None
    setattr(cfg, key, value)


def parse_config(path):
    cfg = ExperimentConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: no '=' in {line!r}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in ExperimentConfig.__dataclass_fields__:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            _set(cfg, key, value, f"{path}:{lineno}: {key}")
    return cfg


class RunReport(NamedTuple):
    total_evals: int
    final_gap: float


class Instance(NamedTuple):
    x0: AmbientPoint
    R: float
    objective: object
    x_star: AmbientPoint
    f_star: float


def build_instance(cfg):
    """Instantiate the problem of a config on the unit-curvature model.

    Anchor files always hold unit-model coordinates; a curvature K only
    scales the ball radius to sqrt|K| R (and would scale L and mu by 1/|K|,
    which the built-in objective derives itself on the unit model).

    The objective declares its constants on the reach of its anchors: the
    farthest anchor's distance from x0, plus R, plus a padding of 0.75 R
    for ``restart_sc`` and ``reduce_gc``, whose rounds re-centre their
    balls.  The padding covers every ball within 1.75 R of x0.  Round 0 of
    a re-centred restart runs on B(x0, R), and round k >= 1 on B(x_k, R_k),
    R_k = R / 2^(k/2), with x_k within R_k of x* and d(x0, x*) <= R.  Round
    1 stays within R + R_1 (x_1 lies in round 0's ball) and rounds 3 on
    within R + 2 R_3, both 1.71 R.  Round 2 does not: round 0 may end at
    x_1 = x*, R from x0, and round 1 at x_2, R/2 past x* on the far side
    from x0, each within its certified target, so B(x_2, R/2) reaches 2 R.
    An anchor file whose reach leaves the domain of
    ``objectives.delta_constants`` (on the sphere, reach < pi/2) is refused
    naming anchors_file, the solver and the reach; drawn anchors are kept
    inside it.
    """
    cfg.validate()
    space = CurvatureClass(SPHERICAL if cfg.curvature > 0 else HYPERBOLIC)
    R = math.sqrt(abs(cfg.curvature)) * cfg.R
    x0 = pole(cfg.d, space)
    rng = np.random.default_rng(cfg.seed)
    needs_recent = cfg.solver in ("restart_sc", "reduce_gc")
    padding = 0.75 * R if needs_recent else 0.0
    if cfg.anchors_file:
        try:
            _, anchors = load_anchors(cfg.anchors_file, space)
        except OSError as err:
            raise ConfigError(f"anchors_file: {err}") from None
        if anchors[0].d != cfg.d:
            raise ConfigError(f"anchors_file: its anchors have d = {anchors[0].d}, the config d = {cfg.d}")
        if cfg.anchor_count not in (None, len(anchors)):
            raise ConfigError(
                f"anchor_count: {cfg.anchor_count} does not match the {len(anchors)} anchors of anchors_file"
            )
        far = float(np.max(distance(x0.coords, np.stack([a.coords for a in anchors]), space.sign)))
        reach = far + R + padding  # the reach FrechetObjective declares its constants for
        _refuse_reach(space.sign, reach, f"anchors_file: with {cfg.solver}, the farthest anchor ({far:.6g}), "
                      f"R ({R:.6g}) and the padding ({padding:.6g}) reach {reach:.6g}")
    else:
        r_a = 0.75 * R
        if space.sign == SPHERICAL:
            cap = 0.95 * (math.pi / 2 - R - padding)
            if cap <= 0:
                raise ConfigError("R too large for a g-convex spherical instance")
            r_a = min(r_a, cap)
        count = DEFAULT_ANCHOR_COUNT if cfg.anchor_count is None else cfg.anchor_count
        coords = random_in_ball(x0.coords, space.sign, r_a, rng, count)
        anchors = [AmbientPoint(c, space) for c in coords]
    if cfg.weights == "equal":
        w = np.full(len(anchors), 1.0 / len(anchors))
    else:
        w = rng.uniform(0.2, 1.0, len(anchors))
        w = w / w.sum()
    F = FrechetObjective(anchors, w, x0, R, padding=padding)
    if cfg.condition is not None:
        target_L = cfg.condition * F.strong_convexity
        if target_L < F.smoothness:
            raise ConfigError("condition: below the instance's intrinsic ratio")
        F = with_constants(F, smoothness=target_L)
    if cfg.treat_gconvex:
        F = with_constants(F, strong_convexity=0.0)
    x_star, f_star = reference_optimum(F, x0, R)
    return Instance(x0, R, F, x_star, f_star)


def rgd_budget(F, R, epsilon):
    """Certified iteration budget for projected gradient descent.

    Declared strongly convex objectives get the linear-convergence budget
    (L/mu) log(Delta/eps); merely g-convex ones need the sublinear
    2 zeta L R^2 / eps budget, zeta being the curvature distortion of the
    squared distance over the ball.
    """
    L = F.smoothness
    Delta = 2.0 * L * R * R
    if F.strong_convexity > 0:
        return axgd.ceil_budget(L / F.strong_convexity * math.log(max(Delta / epsilon, 2.0)))
    zeta = 2.0 * R / math.tanh(2.0 * R) if F.space.sign == HYPERBOLIC else 1.0
    return axgd.ceil_budget(2.0 * zeta * L * R * R / epsilon)


def _plan(cfg, inst):
    """Plan the run of ``cfg`` on ``inst`` once, and return its solve.

    Raises the error that refuses the run before its first solve: an
    epsilon below ``refuse_below_floor``'s float64 floor, for every solver,
    and a certified budget over ``axgd.MAX_ITERATIONS``, refused naming the
    config values it grows with.  For the reductions the solve is the run
    their planner checked, so nothing is planned again.  The returned
    ``solve(row)`` runs the planned solver and hands each traced record to
    ``row(i, evals, frame, x, f_value, lam, gamma_hat)``: x is a ball point
    of ``frame`` for axgd and the reductions, and a model point with
    ``frame=None`` for rgd; ``f_value=None`` stands for the instance
    objective at x, which the records of a regularization stage do not hold.
    """
    F, x0, R, eps = inst.objective, inst.x0, inst.R, cfg.epsilon
    if cfg.solver in ("axgd", "rgd"):  # the reductions' planners apply the rule themselves
        refuse_below_floor(F, x0, eps)
    try:
        if cfg.solver == "axgd":
            frame = make_frame(x0, R)
            params = axgd.params_from_constants(deformation_constants(frame, F.smoothness), frame.R_tilde, eps)
            return lambda row: axgd.run(
                MappedObjective(F, frame), params, np.zeros(frame.d),
                trace=lambda r: row(r.i, r.grad_evals, frame, r.x, r.f_value, r.lam, r.gamma_hat),
            )
        if cfg.solver == "rgd":
            budget = rgd_budget(F, R, eps)
            # The baseline spends its certified budget; a target-gap stop would
            # need oracle knowledge of f(x*), which no real solver has.
            stride = max(1, budget // 1000)
            params = RgdParams(step=1.0 / F.smoothness, max_iters=budget, tol_grad=-1.0, trace_stride=stride)
            return lambda row: rgd_run(
                F, x0, R, params, trace=lambda r: row(r.k, r.grad_evals, None, r.x, r.f_value, math.nan, math.nan)
            )
        if cfg.solver == "restart_sc":
            run = plan_strongly_gconvex(F, x0, R, eps)
            return lambda row: run(_round_rows(row, lambda rt: (rt,)))
        F_gc = with_constants(F, strong_convexity=0.0) if F.strong_convexity > 0 else F
        run = plan_gconvex_via_sc(F_gc, x0, R, eps)
        return lambda row: run(_round_rows(row, lambda st: st.rounds))
    except axgd.BudgetError as err:
        condition = "" if cfg.condition is None else f", condition = {cfg.condition:g}"
        raise ConfigError(f"epsilon = {cfg.epsilon:g}, R = {cfg.R:g}{condition}: {err}") from None


def _round_rows(row, rounds_of):
    """A reduction's trace sink, handing ``row`` each record of the rounds ``rounds_of(event)``.

    Evals add up over the events.  An event's evals outside its rounds, the
    call that certifies a regularization stage's radius, come before its
    rounds.  Each record goes with its round's frame and ``f_value=None``:
    its gap is taken on the instance objective, since the records of a
    regularization stage hold regularized values.  A stage that runs no
    round (its warm start already meets its target) gives one row at its
    point, with lambda and gamma_hat NaN, so that the last row holds the
    run's evals and its final point.
    """
    count = spent = 0

    def sink(event):
        nonlocal count, spent
        rounds = rounds_of(event)
        spent += event.grad_evals - sum(rt.grad_evals for rt in rounds)
        if not rounds:
            count += 1
            row(count, spent, None, event.x_end.coords, None, math.nan, math.nan)
        for rt in rounds:
            for rec in rt.records:
                count += 1
                row(count, spent + rec.grad_evals, rt.frame, rec.x, None, rec.lam, rec.gamma_hat)
            spent += rt.grad_evals

    return sink


def run_experiment(cfg, instance=None):
    """Plan and run ``cfg`` and return its RunReport, holding no trace (see ``_trace_run``)."""
    cfg.validate()
    inst = instance or build_instance(cfg)
    return _trace_run(cfg, inst, _plan(cfg, inst))


def _trace_run(cfg, inst, solve):
    """Run the planned ``solve`` of ``cfg`` and return its RunReport, holding no trace.

    With ``cfg.output``, each CSV row streams as it is made to a temporary
    file beside the output, made before the solve, which replaces the output
    when the run ends; a run that fails removes it and leaves the output as
    it was.  Without an output, only the last row's gap is taken: a
    reduction's last record is mapped once, as a written row is, and no
    other point is mapped or measured.
    """
    last, fh, t0 = None, None, time.perf_counter_ns()

    def report(evals, frame, x, f_value):
        if f_value is None:
            f_value = float(inst.objective.value_c(x if frame is None else from_ball(frame, x)))
        return RunReport(evals, max(f_value - inst.f_star, 0.0))

    def row(i, evals, frame, x, f_value, lam, gamma_hat):
        nonlocal last
        if fh is None:
            last = (evals, frame, x, f_value)
            return
        if frame is not None:
            x = from_ball(frame, x)
        last = report(evals, None, x, f_value)
        dist = float(distance(x, inst.x_star.coords, inst.x0.space.sign))
        wall = time.perf_counter_ns() - t0 if cfg.timing else 0
        fh.write(f"{i},{evals},{last.final_gap:.17g},{dist:.17g},{lam:.17g},{gamma_hat:.17g},{wall}\n")

    if not cfg.output:
        solve(row)
        return report(*last)
    tmp = f"{cfg.output}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", newline="\n")
    except OSError as err:  # name the output the user gave, not its temporary file
        raise OSError(err.errno, err.strerror, cfg.output) from None
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            solve(row)
        os.replace(tmp, cfg.output)
    except BaseException:
        os.remove(tmp)
        raise
    return last


def fit_rate_exponent(series, deflate_log=True):
    """Least-squares slope of log(evals) against log(1/eps).

    ``series`` is a list of (epsilon, grad_evals) pairs covering at least
    four points and two decades; with ``deflate_log`` the counts are
    divided by log(1/eps) first to strip the logarithmic factor.
    """
    if len(series) < 4:
        raise ValueError("need at least 4 sweep points")
    eps = np.array([s[0] for s in series], dtype=float)
    evals = np.array([s[1] for s in series], dtype=float)
    if np.max(eps) / np.min(eps) < 100.0:
        raise ValueError("sweep must span at least two decades of epsilon")
    x = np.log(1.0 / eps)
    y = evals / np.log(1.0 / eps) if deflate_log else evals
    slope = np.polyfit(x, np.log(y), 1)[0]
    return float(slope)


def run_sweep(cfg, key, values, output_dir):
    """Run ``cfg`` once per value of the config ``key`` ("epsilon" or "condition").

    Writes one CSV trace per point and ``{solver}_summary.csv``, and returns
    the (value, grad_evals, final_gap) series.  Before the first solve and
    before the output directory is made, the axis is checked, and every
    point is validated, built and planned once; each point then runs the
    solve ``_plan`` returned for it, which does not plan again.  The axis
    must hold a value, and 4 or more points, enough to fit an exponent,
    must span two decades.
    """
    if not values:
        raise ConfigError(f"{key}: the sweep needs at least one value")
    prefix = os.path.join(output_dir, cfg.solver + {"epsilon": "_eps", "condition": "_cond"}[key])
    points = [replace(cfg, output=f"{prefix}{v:g}.csv", **{key: v}).validate() for v in values]
    if len(values) >= 4 and max(values) / min(values) < 100.0:
        raise ConfigError(f"{key}: a sweep of 4 or more points must span at least two decades")
    # The condition sets the declared L, so only an epsilon sweep shares one instance.
    shared = build_instance(cfg) if key == "epsilon" else None
    instances = [shared or build_instance(point) for point in points]
    runs = [(point, inst, _plan(point, inst)) for point, inst in zip(points, instances)]
    os.makedirs(output_dir, exist_ok=True)
    series = [(value, *_trace_run(*run)) for value, run in zip(values, runs)]
    summary = os.path.join(output_dir, f"{cfg.solver}_summary.csv")
    with open(summary, "w", newline="\n") as fh:
        fh.write(f"{key},grad_evals,f_gap\n")
        for value, evals, gap in series:
            fh.write(f"{value:.17g},{evals},{gap:.17g}\n")
    return series


def _load_config(args):
    """The ``--config`` file, or the defaults without one, with the command's flags laid over it."""
    try:
        cfg = parse_config(args.config) if args.config else ExperimentConfig()
    except OSError as err:
        raise ConfigError(f"--config: {err}") from None
    for key in ExperimentConfig.__dataclass_fields__:
        text = getattr(args, key, None)
        if text is not None:
            _set(cfg, key, text, f"--{key}")
    return cfg


def _cmd_run(args):
    cfg = _load_config(args)
    report = run_experiment(cfg)
    print(
        f"solver={cfg.solver} epsilon={cfg.epsilon:g} grad_evals={report.total_evals} "
        f"final_gap={report.final_gap:.6e}"
    )
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    key = "epsilon" if args.epsilons is not None else "condition"
    try:
        values = [float(v) for v in getattr(args, f"{key}s").split(",") if v]
    except ValueError as err:
        raise ConfigError(f"--{key}s: {err}") from None
    series = run_sweep(cfg, key, values, args.output_dir)
    for value, evals, gap in series:
        print(f"{key}={value:g} grad_evals={evals} final_gap={gap:.6e}")
    if len(series) >= 4:
        if key == "condition":
            # The condition raises L at a fixed mu, so no budget's log
            # factor changes along this axis.
            points, deflate = [(1.0 / c, n) for c, n, _ in series], False
        else:
            # The certified descent budget 2 zeta L R^2 / eps has no log(1/eps)
            # factor to strip; the other solvers' counts are deflated by it.
            points, deflate = [(e, n) for e, n, _ in series], cfg.solver != "rgd"
        slope = fit_rate_exponent(points, deflate_log=deflate)
        print(f"fitted_exponent={slope:.4f}")
    return 0


def _cmd_verify(args):
    if not 1 <= args.samples <= MAX_VERIFY_SAMPLES:
        raise ConfigError(
            f"--samples: must be an integer from 1 to {MAX_VERIFY_SAMPLES} "
            f"(the {MEMORY_BUDGET >> 30} GiB memory budget), got {args.samples}"
        )
    if args.seed < 0:
        raise ConfigError(f"--seed: must be a non-negative integer, got {args.seed}")
    from . import checks  # loaded here only: ``import curvopt`` does not load the check suite

    results = checks.run_grid(n=args.samples, seed=args.seed)
    worst = {}
    for res in results:
        cur = worst.get(res.name)
        if cur is None or res.worst - res.bound > cur.worst - cur.bound:
            worst[res.name] = res
    for res in worst.values():
        print(res)
    return 0 if all(res.ok for res in worst.values()) else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is reported as one ``error:`` line too
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(prog="bench", description="benchmark harness for curvature-aware solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its CSV trace")
    p_sweep = sub.add_parser("sweep", help="run an epsilon or condition-ratio sweep")
    for p in (p_run, p_sweep):  # the flags _load_config casts and lays over the config file
        p.add_argument("--config")
        p.add_argument("--solver", metavar="{" + ",".join(SOLVERS) + "}")
        p.add_argument("--seed")
    p_run.add_argument("--epsilon")
    p_run.add_argument("--output")
    p_run.set_defaults(func=_cmd_run)
    axis = p_sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--epsilons")
    axis.add_argument("--conditions")
    p_sweep.add_argument("--output-dir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the geometry property suites")
    p_verify.add_argument("--samples", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    # SIGTERM unwinds a run (exit 143), which removes its temporary trace;
    # only the main thread may set a signal handler.
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum)) if on_main else None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, axgd.LineSearchError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
