"""The four benchmark workloads: seeded inputs, set-up, solve and correctness.

Every workload is driven through curvopt's public entry points.  The
benchmark draws the anchor sets itself and hands them to the library as an
anchor file, so that a change to how ``bench.build_instance`` uses its
random generator cannot change a workload.  ``co`` is always the imported
``curvopt`` package, passed in because set-up re-imports it.
"""

from __future__ import annotations

import copy as cp
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Per-cell sample count of verify-grid: the default of checks.run_grid.
GRID_SAMPLES = 2000
GRID_RESULTS = 180  # 2 signs x 3 dims x 3 radii x 10 checks
# Laps of the solve timer come every ~20 ms of solving on an idle core:
# every 64 axgd records (one per iteration), every 8 rgd records (one per
# trace stride), and every 128 gradient calls inside a reduction, which
# reports to its sink only once per stage.
LAP_AXGD_RECORDS = 64
LAP_RGD_RECORDS = 8
LAP_REDUCTION_GRADS = 128


@dataclass(frozen=True)
class SolverSpec:
    """One solver workload, as ExperimentConfig fields plus the anchor draw."""

    manifold: str
    d: int
    R: float
    anchor_count: int
    epsilon: float
    solver: str
    treat_gconvex: bool = False
    condition: float | None = None

    @property
    def sign(self):
        return 1 if self.manifold == "spherical" else -1

    @property
    def padding(self):
        # build_instance pads the declared constants for the re-centring solvers.
        return 0.75 * self.R if self.solver in ("restart_sc", "reduce_gc") else 0.0


SOLVER_SPECS = {
    "axgd-h2": SolverSpec("hyperbolic", 2, 1.0, 5, 1e-4, "axgd", treat_gconvex=True),
    "reduce-s10": SolverSpec("spherical", 10, 0.7, 20, 1e-5, "reduce_gc"),
    "rgd-h2": SolverSpec("hyperbolic", 2, 1.0, 5, 1e-6, "rgd", condition=3000.0),
}
WORKLOADS = tuple(SOLVER_SPECS) + ("verify-grid",)


def draw_anchors(spec, seed):
    """Ambient anchor coordinates around the pole, seeded by ``seed`` only.

    Anchors lie within 0.75 R of the pole; on the sphere they are also
    capped at 0.95 (pi/2 - R - padding) as build_instance does, so the
    instance stays g-convex when the map is re-centred.  The radii form a
    fixed ladder up to that cap and the seed draws the directions: the
    largest anchor distance, and with it the declared constants and the
    certified budgets, is then the same for every seed.
    """
    r_max = 0.75 * spec.R
    if spec.sign > 0:
        r_max = min(r_max, 0.95 * (math.pi / 2 - spec.R - spec.padding))
    radii = r_max * np.arange(1, spec.anchor_count + 1) / spec.anchor_count
    u = np.random.default_rng(seed).standard_normal((spec.anchor_count, spec.d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if spec.sign > 0:
        radial, axial = np.sin(radii), np.cos(radii)
    else:
        radial, axial = np.sinh(radii), np.cosh(radii)
    return np.hstack([radial[:, None] * u, axial[:, None]])


def write_anchor_file(path, spec, coords):
    """The documented format: a ``# class=... d=...`` header, one anchor per line."""
    lines = [f"# class={spec.manifold} d={spec.d}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in coords]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class Outcome:
    """What one solve (or one grid) did: work counts and failed operations.

    ``work`` is the solve's gradient evals, or the sample points a grid checked.
    """

    attempted: int
    work: int
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    evals_to_eps: int = 0


def _line_search_probes(records):
    # The first record is the forced lambda = 1 step, which reports probes = 1.
    return [rec.probes for rec in records[1:]]


def _axgd_counts(rounds):
    """Counts and bookkeeping failures over axgd.run record lists."""
    probes = [p for records in rounds for p in _line_search_probes(records)]
    failures = []
    for records in rounds:
        expected = 2 * (1 + sum(_line_search_probes(records)))
        if records[-1].grad_evals != expected:
            failures.append(
                f"axgd.run reported {records[-1].grad_evals} gradient evals, "
                f"expected 2 x (1 + probes) = {expected}"
            )
    counts = {
        "axgd.iters": sum(len(records) for records in rounds),
        "axgd.line_searches": len(probes),
        "axgd.probes": sum(probes),
        "axgd.bisections": sum(max(0, p - 2) for p in probes),
        "axgd.first_probe_accepts": sum(1 for p in probes if p == 1),
    }
    return counts, failures


def _lapping(objective, lap):
    """A shallow copy of ``objective`` whose ``grad_c`` laps the solve timer."""
    copy = cp.copy(objective)
    grad_c = objective.grad_c
    calls = itertools.count(1)

    def lapping_grad_c(x):
        out = grad_c(x)
        if next(calls) % LAP_REDUCTION_GRADS == 0:
            lap()
        return out

    copy.grad_c = lapping_grad_c
    return copy


class SolverWorkload:
    """Set-up and solve of one SOLVER_SPECS entry, as run_experiment derives them."""

    attempted = 1  # operations per solve

    def __init__(self, co, name, anchors_path):
        self.co = co
        self.spec = spec = SOLVER_SPECS[name]
        cfg = co.bench.ExperimentConfig(
            manifold=spec.manifold,
            curvature=float(spec.sign),
            d=spec.d,
            R=spec.R,
            anchors_file=str(anchors_path),
            weights="equal",
            condition=spec.condition,
            treat_gconvex=spec.treat_gconvex,
            solver=spec.solver,
            epsilon=spec.epsilon,
        )
        self.inst = inst = co.bench.build_instance(cfg)
        F = inst.objective
        if spec.solver == "axgd":
            self.frame = co.make_frame(inst.x0, inst.R)
            dc = co.deformation_constants(self.frame, F.smoothness)
            self.params = co.params_from_constants(dc, self.frame.R_tilde, spec.epsilon)
            self.fmap = co.MappedObjective(F, self.frame)
        elif spec.solver == "rgd":
            self.budget = co.bench.rgd_budget(F, inst.R, spec.epsilon)
            self.params = co.RgdParams(
                step=1.0 / F.smoothness,
                max_iters=self.budget,
                tol_grad=-1.0,
                trace_stride=max(1, self.budget // 1000),
            )
        elif F.strong_convexity > 0:
            self.objective = co.with_constants(F, strong_convexity=0.0)
        else:
            self.objective = F

    def solve(self, lap):
        """The timed call; returns its raw output for ``check``.

        ``lap`` is called every few tens of milliseconds of solving (see
        hostspeed.Stopwatch).
        """
        co, inst, spec = self.co, self.inst, self.spec
        if spec.solver == "reduce_gc":
            stages = []
            x = co.solve_gconvex_via_sc(
                _lapping(self.objective, lap), inst.x0, inst.R, spec.epsilon, recenter=True,
                trace=stages.append,
            )
            return x, stages
        records = []
        every = LAP_AXGD_RECORDS if spec.solver == "axgd" else LAP_RGD_RECORDS

        def sink(rec):
            records.append(rec)
            if len(records) % every == 0:
                lap()

        if spec.solver == "axgd":
            xt = co.axgd.run(self.fmap, self.params, np.zeros(self.frame.d), trace=sink)
            return xt, records
        x = co.rgd_run(inst.objective, inst.x0, inst.R, self.params, trace=sink)
        return x, records

    def check(self, raw):
        """Correctness of one solve, judged from the point it returns."""
        out, trace = raw
        eps = self.spec.epsilon
        if self.spec.solver == "axgd":
            x = self.co.from_ball(self.frame, out)
            rounds = [trace]
            counts, failures = _axgd_counts(rounds)
            evals = trace[-1].grad_evals
            if len(trace) != self.params.t:
                failures.append(f"axgd.run ran {len(trace)} iterations, budget {self.params.t}")
            gaps = [rec.f_value - self.inst.f_star for rec in trace]
            evals_at = [rec.grad_evals for rec in trace]
        elif self.spec.solver == "rgd":
            x = out.coords
            evals = trace[-1].grad_evals
            counts = {"baselines.rgd.iters": trace[-1].k}
            failures = []
            if evals != self.budget + 1:
                failures.append(f"rgd_run spent {evals} gradient evals, expected budget + 1 = {self.budget + 1}")
            gaps = [rec.f_value - self.inst.f_star for rec in trace]
            evals_at = [rec.grad_evals for rec in trace]
        else:
            x = out.coords
            rounds = [rt.records for st in trace for rt in st.rounds]
            counts, failures = _axgd_counts(rounds)
            counts["reductions.stages"] = len(trace)
            counts["reductions.rounds"] = len(rounds)
            evals = sum(st.grad_evals for st in trace)
            gaps, evals_at = self._round_gaps(trace)
        counts = {"grad_evals": evals, **counts}
        gap = float(self.inst.objective.value_c(x)) - self.inst.f_star
        if not gap <= eps:
            failures.append(f"returned point has F(x) - F* = {gap:.3e} > eps = {eps:g}")
        first = next((n for g, n in zip(gaps, evals_at) if g <= eps), 0)
        return Outcome(self.attempted, evals, counts, failures, first)

    def _round_gaps(self, stages):
        """True gaps F(x) - F* of every record of a reduction, with cumulative evals.

        Record values hold the regularized stage objective, so the points are
        mapped back and evaluated on F itself.
        """
        gaps, evals_at, offset = [], [], 0
        for st in stages:
            for rt in st.rounds:
                xt = np.stack([rec.x for rec in rt.records])
                values = self.inst.objective.value_c(self.co.from_ball(rt.frame, xt))
                gaps.extend(values - self.inst.f_star)
                evals_at.extend(offset + rec.grad_evals for rec in rt.records)
                offset += rt.grad_evals
        return gaps, evals_at


class GridWorkload:
    """checks.run_grid over the default grid at GRID_SAMPLES points per cell."""

    attempted = GRID_RESULTS  # one operation per (check, cell) pair

    def __init__(self, co, seed):
        self.co = co
        self.seed = seed

    def solve(self, lap):
        """run_grid one check at a time, which reseeds per check as the full grid does."""
        results = []
        for check in self.co.checks.ALL_CHECKS:
            results += self.co.checks.run_grid(checks=[check], n=GRID_SAMPLES, seed=self.seed)
            lap()
        return results

    def check(self, results):
        failures = [f"checks: {res}" for res in results if not res.ok]
        if len(results) != GRID_RESULTS:
            failures.append(f"run_grid returned {len(results)} results, expected {GRID_RESULTS}")
        counts = {"checks.results": len(results), "checks.violations": sum(not r.ok for r in results)}
        return Outcome(self.attempted, GRID_RESULTS * GRID_SAMPLES, counts, failures)


def set_up(co, name, seed, anchors_path):
    """Build the workload's instance; the part of it that ``setup_s`` times."""
    if name == "verify-grid":
        return GridWorkload(co, seed)
    return SolverWorkload(co, name, anchors_path)
