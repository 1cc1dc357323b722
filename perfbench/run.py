"""curvopt benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; curvopt is imported from ``src``.
The seed draws the workload's inputs.  Set-up (``import curvopt``, the
anchor-file load, ``build_instance`` and the solver constants) is repeated
SETUP_REPS times and timed as a median.  The solve is then repeated until
S seconds of solving have passed, and every solve is checked: the point it
returns must be within eps of the reference optimum, its gradient-eval
count must match the solver's bookkeeping, and its work counts must repeat
exactly.

With ``--trace 0`` nothing is wrapped, and the end-to-end metrics of
BENCHMARK.json are reported.  With ``--trace 1`` the run times untraced
solves for S / 2 seconds, then wraps the library's public functions (see
tracer.py) and sets up and solves once more, and reports the per-layer
metrics.  Spans and the run record go to ``.perfbench/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
status is 1 when an operation failed and 2 when the run could not start.
"""

import os

# One thread: BLAS pools must be sized before numpy is first imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 9
MICRO_REPEAT, MICRO_NUMBER = 5, 1000

# Work counts read off the trace; they must repeat exactly like the solver's own.
TRACED_COUNTS = ("objectives.maps_per_eval", "baselines.rgd.clips")


class RunError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics():
    """(name, unit) pairs of BENCHMARK.json, end_to_end and per_layer."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise RunError(f"{path.name} not found at the checkout root")
    spec = json.loads(path.read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }


def source_digest():
    """Digest of the library and benchmark sources: work counts are stored under it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "curvopt").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args, digest):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "sources_sha256": digest,
    }


class Ledger:
    """Attempted and failed operations, with the message of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, attempted, failures):
        """Count ``attempted`` operations, of which each message fails one.

        A solve fails once however many reasons it has; a grid has one
        operation per (check, cell) pair.  Failures found after the fact,
        such as work counts that changed between runs, fail one operation.
        """
        self.attempted += attempted
        self.failed += min(len(failures), attempted or 1)
        self.failures += failures
        for msg in failures:
            print(f"FAILED: {msg}", file=sys.stderr)


def import_curvopt(base_modules):
    """Fresh ``import curvopt``: drop every module loaded since start-up first."""
    for name in set(sys.modules) - base_modules:
        del sys.modules[name]
    return importlib.import_module("curvopt")


def timed_setups(args, anchors_path, base_modules, host):
    """SETUP_REPS fresh imports and set-ups; returns (stopwatches, package, workload)."""
    watches = []
    for _ in range(SETUP_REPS):
        with hostspeed.Stopwatch(host) as watch:
            co = import_curvopt(base_modules)
            work = workloads.set_up(co, args.workload, args.seed, anchors_path)
        watches.append(watch)
    return watches, co, work


def solve_checked(work, ledger, reference, host, tr=None):
    """One timed solve and its checks; returns (Stopwatch, Outcome or None).

    With a tracer, the tracer is removed before the checks, so that they
    add no spans.
    """
    watch = hostspeed.Stopwatch(host)
    try:
        with watch:
            raw = work.solve(watch.lap)
    except Exception as err:  # a failed operation is counted, not fatal
        ledger.add(work.attempted, [f"solve raised {type(err).__name__}: {err}"])
        return watch, None
    finally:
        if tr is not None:
            tr.uninstall()
    outcome = work.check(raw)
    failures = list(outcome.failures)
    if reference and outcome.counts != reference:
        failures.append(f"work counts changed between solves: {outcome.counts} vs {reference}")
    ledger.add(outcome.attempted, failures)
    return watch, outcome


def solve_for(work, seconds, ledger, host, reference=None):
    """Solve at least once and until ``seconds`` of solving have passed."""
    watches, outcomes = [], []
    while not watches or sum(w.wall for w in watches) < seconds:
        watch, outcome = solve_checked(work, ledger, reference, host)
        watches.append(watch)
        if outcome is not None:
            outcomes.append(outcome)
            reference = reference or outcome.counts
    return watches, outcomes


def medians(watches, host):
    """Median corrected and median raw seconds of some stopwatches."""
    ref = host.reference
    return (
        statistics.median(w.corrected(ref) for w in watches),
        statistics.median(w.wall for w in watches),
    )


def compare_stored_counts(path, counts, ledger):
    """Fail if another run of this program and seed stored different work counts."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    clashes = [k for k in counts if k in stored and stored[k] != counts[k]]
    if clashes:
        ledger.add(0, [f"work count {k} = {counts[k]} here, {stored[k]} in an earlier run" for k in clashes])
    stored.update(counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True) + "\n")
    os.replace(tmp, path)


def end_to_end(args, work, setup_watches, ledger, host):
    watches, outcomes = solve_for(work, args.seconds, ledger, host)
    if not outcomes:
        return {}, [], {}, {}
    setup_s, setup_wall = medians(setup_watches, host)
    solve_s, solve_wall = medians(watches, host)
    units = outcomes[0].work
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "work": units,
        "work_per_s": units / solve_s,
        "peak_rss_mb": rss_mb,
    }
    grid = isinstance(work, workloads.GridWorkload)
    rate = "samples_per_s" if grid else "evals_per_s"
    walls = [w.wall for w in watches]
    lines = [
        f"setup_s      {setup_s:.6f} s    median of {len(setup_watches)} set-ups "
        f"(raw wall {setup_wall:.6f} s)",
        f"solve_s      {solve_s:.6f} s    median of {len(watches)} solves "
        f"(raw wall median {solve_wall:.6f}, min {min(walls):.6f}, max {max(walls):.6f})",
        f"{'samples' if grid else 'grad_evals':<12} {units} count",
        f"{rate:<12} {units / solve_s:.3f} 1/s",
        f"peak_rss_mb  {rss_mb:.3f} MB",
        f"failed_ratio {ledger.failed}/{ledger.attempted} ratio",
        f"host probe   {min(host.probes) * 1e3:.4f} ms fastest, "
        f"{statistics.median(host.probes) * 1e3:.4f} ms median of {len(host.probes)}, "
        f"reference {host.reference * 1e3:.4f} ms",
    ]
    timings = {
        "solve_corrected_s": [w.corrected(host.reference) for w in watches],
        "solve_wall_s": walls,
        "setup_corrected_s": [w.corrected(host.reference) for w in setup_watches],
        "setup_wall_s": [w.wall for w in setup_watches],
        "probe_s": {"min": min(host.probes), "median": statistics.median(host.probes), "n": len(host.probes)},
    }
    return metrics, lines, outcomes[0].counts, timings


def micro_costs(work, host):
    """Per-call costs in us on one fixed interior point of the axgd-h2 instance.

    Each is the median over MICRO_REPEAT stopwatches of MICRO_NUMBER calls.
    """
    co, frame, fmap = work.co, work.frame, work.fmap
    F = getattr(work.inst.objective, "oracle_equivalent", work.inst.objective)
    xt = 0.5 * frame.R_tilde * np.array([math.cos(1.0), math.sin(1.0)])
    x = co.from_ball(frame, xt)
    g = F.grad_c(x)
    calls = {
        "micro.from_ball_us": lambda: co.from_ball(frame, xt),
        "micro.pullback_gradient_us": lambda: co.pullback_gradient(frame, x, g, xt=xt),
        "micro.grad_c_us": lambda: F.grad_c(x),
        "micro.value_c_us": lambda: F.value_c(x),
        "micro.mapped_grad_us": lambda: fmap.grad(xt),
        "micro.mapped_value_us": lambda: fmap.value(xt),
    }
    out = {}
    for name, fn in calls.items():
        timer = timeit.Timer(fn)
        watches = []
        for _ in range(MICRO_REPEAT):
            with hostspeed.Stopwatch(host) as watch:
                timer.timeit(MICRO_NUMBER)
            watches.append(watch)
        out[name] = watches
    return out


def per_layer(args, work, anchors_path, ledger, declared, host):
    """The traced run: untraced solves for the overhead base, then one traced set-up and solve.

    Returns (metrics, report lines, work counts, tracer).
    """
    co = work.co
    metrics = dict.fromkeys(declared, 0)
    lines = []
    micro = micro_costs(work, host) if args.workload == "axgd-h2" else {}
    watches, outcomes = solve_for(work, args.seconds / 2.0, ledger, host)
    untraced_s = medians(watches, host)[0]

    tr = tracer.Tracer()
    tr.install(co)
    # Speed probes become spans of their own, so no solver span counts them.
    host.probe = tr.wrap("perfbench.speed_probe", host.probe)
    try:
        traced_work = workloads.set_up(co, args.workload, args.seed, anchors_path)
    except BaseException:
        tr.uninstall()
        raise
    tr.run = tracer.SOLVE
    traced, outcome = solve_checked(
        traced_work, ledger, outcomes[0].counts if outcomes else None, host, tr=tr
    )
    if outcome is None:
        return metrics, lines, {}, tr
    counts = dict(outcome.counts)
    setup = tracer.SpanStats(tr.spans, tracer.SETUP)
    solve = tracer.SpanStats(tr.spans, tracer.SOLVE)

    metrics["bench.build_instance.s"] = setup.inclusive_s("bench.build_instance")
    metrics["baselines.reference_optimum.s"] = setup.inclusive_s("baselines.reference_optimum")
    for name in declared:
        parts = name.rsplit(".", 1)
        if parts[1] == "calls":
            metrics[name] = solve.calls[parts[0]]
        elif parts[1] == "self_s":
            metrics[name] = solve.self_s(parts[0])
    for check in co.checks.ALL_CHECKS:
        metrics[f"checks.{check.__name__}.s"] = solve.inclusive_s(f"checks.{check.__name__}")

    evals = counts.get("grad_evals", 0)
    mapped = solve.under["geomap.from_ball", "objectives.MappedObjective.grad"] + solve.under[
        "geomap.from_ball", "objectives.MappedObjective.value"
    ]
    metrics["objectives.maps_per_eval"] = mapped / evals if evals else 0.0
    if "axgd.iters" in counts:
        probes = [p for run, name, p in tr.results if run == tracer.SOLVE]
        searches = solve.calls["axgd.binary_line_search"]
        metrics.update(
            {
                "axgd.iters": searches + solve.calls["axgd.run"],
                "axgd.line_searches": searches,
                "axgd.probes": sum(probes),
                "axgd.bisections": sum(max(0, p - 2) for p in probes),
                "axgd.first_probe_ratio": sum(p == 1 for p in probes) / searches if searches else 0.0,
                "axgd.evals_to_eps": outcome.evals_to_eps,
                "axgd.useful_eval_ratio": outcome.evals_to_eps / evals,
            }
        )
    if "reductions.stages" in counts:
        metrics["reductions.stages"] = solve.calls["reductions.solve_strongly_gconvex"]
        metrics["reductions.rounds"] = solve.under["axgd.run", "reductions.solve_strongly_gconvex"]
    if "baselines.rgd.iters" in counts:
        iters = counts["baselines.rgd.iters"]
        metrics["baselines.rgd.iters"] = iters
        metrics["baselines.rgd.clips"] = solve.under["manifolds.exp_map", "baselines.rgd_run"]
        metrics["baselines.rgd_run.us_per_iter"] = untraced_s / iters * 1e6
        metrics["baselines.evals_to_eps"] = outcome.evals_to_eps
    for name, micro_watches in micro.items():
        metrics[name] = medians(micro_watches, host)[0] / MICRO_NUMBER * 1e6
    if "checks.violations" in counts:
        metrics["checks.violations"] = counts["checks.violations"]
    metrics["trace.overhead_ratio"] = traced.corrected(host.reference) / untraced_s

    # The trace must see the same work as the solver's own records.
    for key, value in counts.items():
        if key in metrics and metrics[key] != value:
            ledger.add(0, [f"traced {key} = {metrics[key]} differs from the solver's own {value}"])
    counts.update((key, metrics[key]) for key in TRACED_COUNTS)

    if args.workload == "axgd-h2":
        lines += micro_table(metrics, counts, untraced_s, work.params.t)
    lines += [f"{name:<52} {metrics[name]:.6g} {unit}" for name, unit in declared.items()]
    return metrics, lines, counts, tr


def micro_table(m, counts, solve_s, t):
    """The per-call costs laid out like ROADMAP.md's baseline table."""
    grad, pull = m["micro.mapped_grad_us"], m["micro.pullback_gradient_us"]
    evals = counts["grad_evals"]
    return [
        "| layer / run | cost |",
        "|---|---|",
        f"| `from_ball` | {m['micro.from_ball_us']:.1f} us |",
        f"| `FrechetObjective.grad_c` / `value_c` | {m['micro.grad_c_us']:.1f} / {m['micro.value_c_us']:.1f} us |",
        f"| `pullback_gradient` | {pull:.1f} us ({100 * pull / grad:.0f}% of the time in `MappedObjective.grad`) |",
        f"| `MappedObjective.grad` / `.value` | {grad:.1f} / {m['micro.mapped_value_us']:.1f} us |",
        f"| `axgd.run`, eps = 1e-4 | t = {t} iterations, {evals} evals, {solve_s:.2f} s, "
        f"{solve_s / evals * 1e6:.0f} us/eval |",
    ]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "curvopt" / "__init__.py").is_file():
        raise RunError(f"no curvopt sources under {SRC.name}/ in {ROOT}")
    declared = declared_metrics()
    names = declared["per_layer" if args.trace else "end_to_end"]
    if args.seconds <= 0:
        raise RunError("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    digest = source_digest()
    record = run_record(args, digest)
    print("run: " + json.dumps(record, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}"

    anchors_path = OUT / f"anchors-{tag}.txt"
    if args.workload in workloads.SOLVER_SPECS:
        spec = workloads.SOLVER_SPECS[args.workload]
        workloads.write_anchor_file(anchors_path, spec, workloads.draw_anchors(spec, args.seed))

    ledger = Ledger()
    host = hostspeed.HostSpeed()
    metrics, lines, counts, timings = {}, [], {}, {}
    try:
        setup_watches, co, work = timed_setups(args, anchors_path, set(sys.modules), host)
    except Exception as err:  # a failed set-up is one failed operation
        ledger.add(1, [f"set-up raised {type(err).__name__}: {err}"])
    else:
        if args.trace:
            metrics, lines, counts, tr = per_layer(args, work, anchors_path, ledger, names, host)
            tr.write_csv(OUT / f"spans-{args.workload}.csv")
        else:
            metrics, lines, counts, timings = end_to_end(args, work, setup_watches, ledger, host)
    if counts:
        compare_stored_counts(OUT / f"counts-{digest}-{tag}.json", counts, ledger)
    if metrics and set(metrics) != set(names):
        raise RunError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(names) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(names))}"
        )

    for line in lines:
        print(line)
    (OUT / f"record-{tag}-trace{args.trace}.json").write_text(
        json.dumps(
            {**record, "counts": counts, "metrics": metrics, "timings": timings, "failures": ledger.failures},
            indent=1,
        )
        + "\n"
    )
    correct = bool(metrics) and not ledger.failures
    attempted = max(ledger.attempted, 1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": min(ledger.failed, attempted),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
