"""Benchmark harness and CLI.

Subcommands:

  bench run    --config FILE [--solver S] [--epsilon E] [--seed N] [--output F]
  bench sweep  --config FILE --epsilons 1e-2,1e-3,... --output-dir DIR
  bench verify [--samples N] [--seed N]

Config files are flat ``key=value`` lines with ``#`` comments; CLI flags
override file values.  Each run writes one CSV row per traced iteration
with the schema

  iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns

Runs are deterministic for a fixed seed; wall_ns is written as 0 unless
``timing=true`` is set, so that repeated runs stay byte-identical.
Solvers are run for the iteration budget their declared regime certifies
(the accelerated budget for g-convex targets, the linear-convergence
budget for strongly convex ones), and reported gradient-evaluation counts
are the evaluations actually spent.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import axgd, checks
from .baselines import RgdParams, reference_optimum, rgd_run
from .geomap import deformation_constants, from_ball, make_frame
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
from .objectives import FrechetObjective, MappedObjective, load_anchors, with_constants
from .reductions import solve_gconvex_via_sc, solve_strongly_gconvex

SOLVERS = ("axgd", "rgd", "restart_sc", "reduce_gc")
CSV_HEADER = "iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    manifold: str = "hyperbolic"
    d: int = 2
    curvature: float = -1.0
    R: float = 1.0
    anchors_file: str | None = None
    anchor_count: int = 5
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
        for key in ("epsilon", "R", "curvature", "condition"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon: must be positive")
        if self.R <= 0:
            raise ConfigError("R: must be positive")
        sign = SPHERICAL if self.manifold == "spherical" else HYPERBOLIC
        if self.curvature * sign <= 0:
            raise ConfigError("curvature: sign must match the manifold")
        if sign == SPHERICAL and math.sqrt(self.curvature) * self.R >= math.pi / 2:
            raise ConfigError("R: sqrt(curvature) R must stay below pi/2 on the sphere")
        if self.weights not in ("equal", "random"):
            raise ConfigError(f"weights: unknown value {self.weights!r}")
        if self.condition is not None and self.condition <= 0:
            raise ConfigError("condition: must be positive")
        return self


_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config(path):
    cfg = ExperimentConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in ExperimentConfig.__dataclass_fields__:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _cast_field(key, value))
            except ValueError as err:
                raise ConfigError(f"{path}:{lineno}: {err}") from None
    return cfg


def _cast_field(key, value):
    if key in ("d", "anchor_count", "seed"):
        return int(value)
    if key in ("curvature", "R", "epsilon"):
        return float(value)
    if key == "condition":
        return None if value.lower() in ("", "none") else float(value)
    if key in ("treat_gconvex", "timing"):
        if value.lower() not in _BOOL:
            raise ValueError(f"{key}: expected a boolean, got {value!r}")
        return _BOOL[value.lower()]
    return value


@dataclass
class Row:
    iter: int
    grad_evals: int
    f_gap: float
    dist_to_opt: float
    lam: float
    gamma_hat: float
    wall_ns: int


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list
    total_evals: int
    final_gap: float
    f_star: float

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.iter},{r.grad_evals},{r.f_gap:.17g},{r.dist_to_opt:.17g},"
                    f"{r.lam:.17g},{r.gamma_hat:.17g},{r.wall_ns}\n"
                )


@dataclass
class Instance:
    space: CurvatureClass
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
    """
    cfg.validate()
    space = CurvatureClass(SPHERICAL if cfg.curvature > 0 else HYPERBOLIC)
    R = math.sqrt(abs(cfg.curvature)) * cfg.R
    x0 = pole(cfg.d, space)
    rng = np.random.default_rng(cfg.seed)
    needs_recent = cfg.solver in ("restart_sc", "reduce_gc")
    padding = 0.75 * R if needs_recent else 0.0
    if cfg.anchors_file:
        file_space, anchors = load_anchors(cfg.anchors_file, space)
        if anchors[0].d != cfg.d:
            raise ConfigError("anchors_file: dimension does not match config d")
    else:
        r_a = 0.75 * R
        if space.sign == SPHERICAL:
            cap = 0.95 * (math.pi / 2 - R - padding)
            if cap <= 0:
                raise ConfigError("R too large for a g-convex spherical instance")
            r_a = min(r_a, cap)
        coords = random_in_ball(x0.coords, space.sign, r_a, rng, cfg.anchor_count)
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
    return Instance(space, x0, R, F, x_star, f_star)


def _now(cfg, t0):
    return time.perf_counter_ns() - t0 if cfg.timing else 0


def _gap_and_dist(inst, point_coords, f_value):
    gap = max(f_value - inst.f_star, 0.0)
    dist = float(distance(point_coords, inst.x_star.coords, inst.space.sign))
    return gap, dist


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
    if F.space.sign == HYPERBOLIC:
        zeta = 2.0 * R / math.tanh(2.0 * R)
    else:
        zeta = 1.0
    return axgd.ceil_budget(2.0 * zeta * L * R * R / epsilon)


def run_experiment(cfg, instance=None):
    cfg.validate()
    inst = instance or build_instance(cfg)
    t0 = time.perf_counter_ns()
    rows = []
    F = inst.objective

    if cfg.solver == "axgd":
        frame = make_frame(inst.x0, inst.R)
        dc = deformation_constants(frame, F.smoothness)
        params = axgd.params_from_constants(dc, frame.R_tilde, cfg.epsilon)
        fmap = MappedObjective(F, frame)

        def sink(rec):
            x = from_ball(frame, rec.x)
            gap, dist = _gap_and_dist(inst, x, rec.f_value)
            rows.append(
                Row(rec.i, rec.grad_evals, gap, dist, rec.lam, rec.gamma_hat, _now(cfg, t0))
            )

        axgd.run(fmap, params, np.zeros(frame.d), trace=sink)
    elif cfg.solver == "rgd":
        budget = rgd_budget(F, inst.R, cfg.epsilon)
        stride = max(1, budget // 1000)
        # The baseline spends its certified budget; a target-gap stop would
        # need oracle knowledge of f(x*), which no real solver has.
        params = RgdParams(
            step=1.0 / F.smoothness, max_iters=budget, tol_grad=-1.0, trace_stride=stride
        )

        def sink(rec):
            gap, dist = _gap_and_dist(inst, rec.x, rec.f_value)
            rows.append(
                Row(rec.k, rec.grad_evals, gap, dist, math.nan, math.nan, _now(cfg, t0))
            )

        rgd_run(F, inst.x0, inst.R, params, trace=sink)
    elif cfg.solver == "restart_sc":
        _run_restart(cfg, inst, rows, t0)
    else:
        _run_reduce_gc(cfg, inst, rows, t0)

    total = rows[-1].grad_evals if rows else 0
    final_gap = rows[-1].f_gap if rows else math.nan
    report = RunReport(cfg, rows, total, final_gap, inst.f_star)
    if cfg.output:
        report.write_csv(cfg.output)
    return report


def _round_sink(cfg, inst, rows, t0):
    # Gaps are taken on the instance objective: the records of a
    # regularization stage hold values of the regularized objective.
    spent = 0

    def on_round(rt):
        nonlocal spent
        for rec in rt.records:
            x = from_ball(rt.frame, rec.x)
            gap, dist = _gap_and_dist(inst, x, float(inst.objective.value_c(x)))
            evals = spent + rec.grad_evals
            rows.append(Row(len(rows) + 1, evals, gap, dist, rec.lam, rec.gamma_hat, _now(cfg, t0)))
        spent += rt.grad_evals

    return on_round


def _run_restart(cfg, inst, rows, t0):
    if inst.objective.strong_convexity <= 0:
        raise ConfigError("restart_sc needs a strongly convex instance")
    trace = _round_sink(cfg, inst, rows, t0)
    solve_strongly_gconvex(inst.objective, inst.x0, inst.R, cfg.epsilon, trace=trace)


def _run_reduce_gc(cfg, inst, rows, t0):
    F = inst.objective
    if F.strong_convexity > 0:
        F = with_constants(F, strong_convexity=0.0)
    round_sink = _round_sink(cfg, inst, rows, t0)

    def on_stage(st):
        for rt in st.rounds:
            round_sink(rt)

    solve_gconvex_via_sc(F, inst.x0, inst.R, cfg.epsilon, trace=on_stage)


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


def run_sweep(cfg, epsilons, output_dir):
    os.makedirs(output_dir, exist_ok=True)
    inst = build_instance(cfg)
    series = []
    for eps in epsilons:
        sub = replace(cfg, epsilon=eps, output=None)
        report = run_experiment(sub, instance=inst)
        path = os.path.join(output_dir, f"{cfg.solver}_eps{eps:g}.csv")
        report.write_csv(path)
        series.append((eps, report.total_evals, report.final_gap))
    summary = os.path.join(output_dir, f"{cfg.solver}_summary.csv")
    with open(summary, "w", newline="\n") as fh:
        fh.write("epsilon,grad_evals,f_gap\n")
        for eps, evals, gap in series:
            fh.write(f"{eps:.17g},{evals},{gap:.17g}\n")
    return series


def _cmd_run(args):
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    for key in ("solver", "epsilon", "seed", "output"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    report = run_experiment(cfg)
    print(
        f"solver={cfg.solver} epsilon={cfg.epsilon:g} grad_evals={report.total_evals} "
        f"final_gap={report.final_gap:.6e}"
    )
    return 0


def _cmd_sweep(args):
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if args.solver is not None:
        cfg.solver = args.solver
    if args.seed is not None:
        cfg.seed = args.seed
    epsilons = [float(v) for v in args.epsilons.split(",") if v]
    series = run_sweep(cfg, epsilons, args.output_dir)
    for eps, evals, gap in series:
        print(f"epsilon={eps:g} grad_evals={evals} final_gap={gap:.6e}")
    if len(series) >= 4:
        # The certified descent budget 2 zeta L R^2 / eps has no log(1/eps)
        # factor to strip; the other solvers' counts are deflated by it.
        deflate = cfg.solver != "rgd"
        slope = fit_rate_exponent([(e, n) for e, n, _ in series], deflate_log=deflate)
        print(f"fitted_exponent={slope:.4f}")
    return 0


def _cmd_verify(args):
    results = checks.run_grid(n=args.samples, seed=args.seed)
    worst = {}
    for res in results:
        cur = worst.get(res.name)
        if cur is None or res.worst - res.bound > cur.worst - cur.bound:
            worst[res.name] = res
    failed = False
    for res in worst.values():
        print(res)
        failed = failed or not res.ok
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bench", description="benchmark harness for curvature-aware solvers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its CSV trace")
    p_run.add_argument("--config")
    p_run.add_argument("--solver", choices=SOLVERS)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--output")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an epsilon sweep")
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--solver", choices=SOLVERS)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--epsilons", required=True)
    p_sweep.add_argument("--output-dir", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the geometry property suites")
    p_verify.add_argument("--samples", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GeometryError, axgd.LineSearchError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
