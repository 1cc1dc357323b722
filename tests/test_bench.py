import math
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvopt import (
    axgd,
    bench,
    deformation_constants,
    make_frame,
    solve_gconvex_via_sc,
    solve_strongly_gconvex,
    with_constants,
)
from curvopt.bench import (
    ConfigError,
    ExperimentConfig,
    build_instance,
    fit_rate_exponent,
    main,
    parse_config,
    rgd_budget,
    run_experiment,
    run_sweep,
)

CFG_TEXT = """\
# benchmark instance
manifold = hyperbolic
d = 2
curvature = -1.0
R = 1.0
anchor_count = 4   # inline comment
weights = equal
solver = axgd
epsilon = 1e-3
seed = 7
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CFG_TEXT)
    return path


class TestConfig:
    def test_parse(self, cfg_file):
        cfg = parse_config(cfg_file)
        assert cfg.solver == "axgd"
        assert cfg.epsilon == 1e-3
        assert cfg.anchor_count == 4
        assert cfg.seed == 7

    def test_unknown_key_has_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("manifold = hyperbolic\nnot_a_key = 3\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            parse_config(path)

    def test_bad_value_has_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon = banana\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            parse_config(path)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(solver="nope").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(manifold="spherical", curvature=-1.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(epsilon=-1.0).validate()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epsilon", math.nan),
            ("epsilon", math.inf),
            ("R", math.nan),
            ("R", math.inf),
            ("curvature", math.nan),
            ("curvature", -math.inf),
            ("condition", math.nan),
            ("condition", math.inf),
        ],
    )
    def test_validation_rejects_non_finite(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            ExperimentConfig(**{key: value}).validate()

    def test_curvature_rescaling(self):
        cfg = ExperimentConfig(curvature=-4.0, R=0.5, seed=3)
        inst = build_instance(cfg)
        assert inst.R == pytest.approx(1.0)

    def test_condition_inflation(self):
        cfg = ExperimentConfig(condition=100.0, seed=3)
        inst = build_instance(cfg)
        assert inst.objective.smoothness / inst.objective.strong_convexity == pytest.approx(100.0)

    def test_anchors_file(self, tmp_path):
        from curvopt import CurvatureClass, pole, save_anchors
        from curvopt.manifolds import random_in_ball

        sp = CurvatureClass.hyperbolic()
        rng = np.random.default_rng(0)
        pts = random_in_ball(pole(2, sp).coords, -1, 0.5, rng, 3)
        path = tmp_path / "anchors.txt"
        save_anchors(path, sp, list(pts))
        cfg = ExperimentConfig(anchors_file=str(path), seed=1)
        inst = build_instance(cfg)
        assert inst.objective.anchor_coords.shape == (3, 3)
        # anchor_count, when set, must match the file's anchors.
        cfg.anchor_count = 3
        assert build_instance(cfg).objective.anchor_coords.shape == (3, 3)
        cfg.anchor_count = 7
        with pytest.raises(ConfigError, match="^anchor_count: 7 does not match the 3 anchors"):
            build_instance(cfg)


def _csv_rows(cfg, tmp_path, instance=None):
    """Run ``cfg`` with an output in ``tmp_path``; return its report and its CSV rows as dicts."""
    cfg = replace(cfg, output=str(tmp_path / "trace.csv"))
    report = run_experiment(cfg, instance=instance)
    header, *lines = (tmp_path / "trace.csv").read_text().splitlines()
    keys = header.split(",")
    return report, [dict(zip(keys, map(float, line.split(",")))) for line in lines]


class TestRunExperiment:
    def test_axgd_report(self, tmp_path):
        cfg = ExperimentConfig(epsilon=1e-3, seed=5)
        report, rows = _csv_rows(cfg, tmp_path)
        assert report.final_gap <= 1e-3
        assert rows[0]["iter"] == 1
        assert report.total_evals == rows[-1]["grad_evals"]
        assert all(r["f_gap"] >= 0 for r in rows)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(epsilon=1e-2, seed=5, output=str(tmp_path / "out.csv"))
        run_experiment(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns"
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[-1] == "0"  # deterministic wall column by default
        float(first[2]), float(first[3])

    def test_missing_output_directory_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(axgd, "run", _no_solve)
        out = tmp_path / "missing" / "x.csv"
        assert main(["run", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "No such file" in err, err
        assert not (tmp_path / "missing").exists()

    def test_failed_run_leaves_the_existing_output(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("earlier trace\n")
        monkeypatch.setattr(axgd, "binary_line_search", _exhausted_line_search)
        assert main(["run", "--epsilon", "1e-2", "--output", str(out)]) == 2
        assert "line-search" in capsys.readouterr().err
        assert out.read_text() == "earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_run_streams_its_rows_without_holding_them(self, tmp_path):
        # 8221 rows, which took 2.3 MB when a run held them until its end.
        cfg = ExperimentConfig(weights="random", seed=20240, epsilon=1e-4, output=str(tmp_path / "out.csv"))
        inst = build_instance(cfg)
        report, peak = _traced_peak(run_experiment, cfg, inst)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert int(lines[-1].split(",")[1]) == report.total_evals
        assert peak < 0.5e6

    def test_rgd_budget_regimes(self):
        cfg = ExperimentConfig(seed=5)
        inst = build_instance(cfg)
        F = inst.objective
        k_sc = rgd_budget(F, inst.R, 1e-4)
        assert k_sc == math.ceil(
            F.smoothness
            / F.strong_convexity
            * math.log(2 * F.smoothness * inst.R**2 / 1e-4)
        )
        from curvopt import with_constants

        Fg = with_constants(F, strong_convexity=0.0)
        k_gc = rgd_budget(Fg, inst.R, 1e-2)
        zeta = 2 * inst.R / math.tanh(2 * inst.R)
        assert k_gc == math.ceil(2 * zeta * Fg.smoothness * inst.R**2 / 1e-2)

    def test_rgd_run_spends_budget(self):
        cfg = ExperimentConfig(solver="rgd", epsilon=1e-2, seed=5, treat_gconvex=True)
        inst = build_instance(cfg)
        report = run_experiment(cfg, instance=inst)
        budget = rgd_budget(inst.objective, inst.R, 1e-2)
        assert report.total_evals == budget + 1
        assert report.final_gap <= 1e-2

    def test_restart_and_reduce_run(self):
        for solver, eps in (("restart_sc", 1e-5), ("reduce_gc", 1e-3)):
            cfg = ExperimentConfig(solver=solver, epsilon=eps, seed=5)
            report = run_experiment(cfg)
            assert report.final_gap <= eps
            assert report.total_evals > 0

    def test_reduce_gc_final_gap_is_true_gap(self):
        # Stage records hold values of the regularized objective; the
        # reported gap must be F(x_end) - F* of the instance objective.
        cfg = ExperimentConfig(
            manifold="spherical", d=5, curvature=1.0, R=0.6, solver="reduce_gc",
            epsilon=1e-3, seed=1,
        )
        inst = build_instance(cfg)
        report = run_experiment(cfg, instance=inst)
        F = with_constants(inst.objective, strong_convexity=0.0)
        stages = []
        solve_gconvex_via_sc(F, inst.x0, inst.R, cfg.epsilon, recenter=True, trace=stages.append)
        true_gap = inst.objective.value(stages[-1].x_end) - inst.f_star
        assert report.final_gap == pytest.approx(true_gap, rel=1e-9, abs=1e-15)


class TestRows:
    @pytest.mark.parametrize("solver", ["restart_sc", "reduce_gc"])
    def test_reduction_rows_count_evals_over_all_rounds(self, solver, tmp_path):
        cfg = ExperimentConfig(solver=solver, epsilon=1e-3, seed=5)
        inst = build_instance(cfg)
        _, rows = _csv_rows(cfg, tmp_path, instance=inst)
        assert [r["iter"] for r in rows] == list(range(1, len(rows) + 1))
        evals = [r["grad_evals"] for r in rows]
        assert evals == sorted(evals)
        rounds = []
        if solver == "restart_sc":
            solve_strongly_gconvex(inst.objective, inst.x0, inst.R, cfg.epsilon, trace=rounds.append)
        else:
            F = with_constants(inst.objective, strong_convexity=0.0)
            solve_gconvex_via_sc(F, inst.x0, inst.R, cfg.epsilon, trace=lambda st: rounds.extend(st.rounds))
        assert len(rounds) > 1
        assert evals[-1] == sum(rt.grad_evals for rt in rounds)

    @pytest.mark.parametrize("solver", ["axgd", "rgd", "restart_sc", "reduce_gc"])
    def test_timing_rows_have_positive_nondecreasing_wall(self, solver, tmp_path):
        cfg = ExperimentConfig(solver=solver, epsilon=1e-2, seed=5, timing=True)
        wall = [r["wall_ns"] for r in _csv_rows(cfg, tmp_path)[1]]
        assert wall[0] > 0
        assert wall == sorted(wall)


class TestFitRateExponent:
    def test_exact_sqrt_power_law(self):
        series = [(eps, 100.0 / math.sqrt(eps)) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert fit_rate_exponent(series, deflate_log=False) == pytest.approx(0.5, abs=1e-6)

    def test_exact_linear_power_law(self):
        series = [(eps, 5.0 / eps) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert fit_rate_exponent(series, deflate_log=False) == pytest.approx(1.0, abs=1e-6)

    def test_deflation_strips_log_factor(self):
        series = [
            (eps, 7.0 / math.sqrt(eps) * math.log(1.0 / eps))
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert fit_rate_exponent(series, deflate_log=True) == pytest.approx(0.5, abs=1e-6)

    def test_span_validation(self):
        with pytest.raises(ValueError):
            fit_rate_exponent([(1e-2, 1.0), (2e-2, 2.0), (3e-2, 3.0), (4e-2, 4.0)])
        with pytest.raises(ValueError):
            fit_rate_exponent([(1e-2, 1.0), (1e-3, 2.0), (1e-4, 3.0)])

    @given(p=st.floats(0.1, 1.5), c=st.floats(0.1, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_recovers_arbitrary_exponent(self, p, c):
        series = [(eps, c * eps**-p) for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
        assert fit_rate_exponent(series, deflate_log=False) == pytest.approx(p, abs=1e-9)


class TestCli:
    def run_cli(self, *args, module="curvopt"):
        return subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True
        )

    @pytest.mark.parametrize("module", ["curvopt", "curvopt.bench"])
    def test_help_writes_nothing_to_stderr(self, module):
        # ``-m curvopt.bench`` warns on stderr when ``import curvopt`` has loaded bench before runpy.
        r = self.run_cli("--help", module=module)
        assert r.returncode == 0 and r.stdout.startswith("usage: bench")
        assert r.stderr == ""

    def test_run_byte_identical(self, tmp_path, cfg_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = self.run_cli("run", "--config", str(cfg_file), "--output", str(out1))
        r2 = self.run_cli("run", "--config", str(cfg_file), "--output", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides(self, tmp_path, cfg_file):
        out = tmp_path / "o.csv"
        r = self.run_cli(
            "run", "--config", str(cfg_file), "--epsilon", "1e-2", "--output", str(out)
        )
        assert r.returncode == 0
        assert "epsilon=0.01" in r.stdout

    def test_error_exit_code_and_message(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epsilon = -1\n")
        r = self.run_cli("run", "--config", str(bad))
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_sigterm_removes_the_temporary_trace(self, tmp_path):
        # A restart_sc run at R = 3, epsilon = 1e-4 is still solving when its temporary file appears.
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("R = 3\nsolver = restart_sc\nepsilon = 1e-4\n")
        argv = [sys.executable, "-m", "curvopt", "run", "--config", str(cfg), "--output", str(tmp_path / "out.csv")]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while not list(tmp_path.glob("out.csv.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 143
        finally:
            proc.kill()
            proc.wait()
        assert [p.name for p in tmp_path.iterdir()] == ["slow.cfg"]

    def test_verify_exits_zero(self):
        r = self.run_cli("verify", "--samples", "50", "--seed", "1")
        assert r.returncode == 0
        assert "worst slack" in r.stdout

    def test_sweep_writes_summary(self, tmp_path, cfg_file):
        outdir = tmp_path / "sweep"
        r = self.run_cli(
            "sweep",
            "--config",
            str(cfg_file),
            "--epsilons",
            "1e-1,1e-2",
            "--output-dir",
            str(outdir),
        )
        assert r.returncode == 0
        summary = (outdir / "axgd_summary.csv").read_text().splitlines()
        assert summary[0] == "epsilon,grad_evals,f_gap"
        assert len(summary) == 3


def test_sweep_series_monotone(tmp_path):
    cfg = ExperimentConfig(seed=9)
    series = run_sweep(cfg, "epsilon", [1e-1, 1e-2, 1e-3], str(tmp_path))
    evals = [n for _, n, _ in series]
    assert evals == sorted(evals)
    for eps, _, gap in series:
        assert gap <= eps


def _counting(monkeypatch, name):
    """Replace bench's ``name`` by a wrapper that counts its calls; return the list of calls."""
    calls, original = [], getattr(bench, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bench, name, counted)
    return calls


@pytest.mark.parametrize("output", [False, True], ids=["no-output", "output"])
def test_axgd_rows_map_points_only_when_written(tmp_path, monkeypatch, output):
    cfg = ExperimentConfig(epsilon=1e-2, seed=5, output=str(tmp_path / "out.csv") if output else None)
    inst = build_instance(cfg)
    frame = make_frame(inst.x0, inst.R)
    t = axgd.params_from_constants(deformation_constants(frame, inst.objective.smoothness), frame.R_tilde, 1e-2).t
    calls = _counting(monkeypatch, "from_ball")
    run_experiment(cfg, instance=inst)
    assert len(calls) == (t if output else 0)


@pytest.mark.parametrize("solver,planner", [("axgd", "make_frame"), ("reduce_gc", "plan_gconvex_via_sc")])
def test_sweep_plans_each_point_once(tmp_path, monkeypatch, solver, planner):
    calls = _counting(monkeypatch, planner)
    run_sweep(ExperimentConfig(solver=solver, seed=5), "epsilon", [1e-2, 1e-3], str(tmp_path))
    assert len(calls) == 2


def _exhausted_line_search(*args, **kwargs):
    raise axgd.LineSearchError("line-search probe budget exhausted")


README_H2 = "weights = random\nseed = 20240\n"
RUN = ["run", "--config", "{cfg}", "--output", "{out}"]
SWEEP = ["sweep", "--config", "{cfg}", "--output-dir", "{out}"]


@pytest.mark.parametrize(
    "argv,config,anchors,line_search_fails,where",
    [
        (RUN, "anchors_file = {anchors}\n", "# class=hyperbolic d=2\n", False, "{anchors}:"),
        (RUN, "anchors_file = {anchors}.missing\n", None, False, "{anchors}.missing"),
        (
            RUN,
            "manifold = spherical\ncurvature = 1.0\nR = 0.5\nanchors_file = {anchors}\n",
            "# class=spherical d=2\n0 0 1\n0 0 2\n",
            False,
            "{anchors}:3:",
        ),
        (RUN, "anchors_file = {anchors}\n", "# class=hyperbolic d=2\n0 0 1\n0 0 abc\n", False, "{anchors}:3:"),
        (RUN, "manifold = spherical\ncurvature = 4.0\nR = 0.8\n", None, False, "R:"),
        (RUN, "curvature = 0\n", None, False, "curvature:"),
        (RUN, "epsilon = 1e-2\n", None, True, "line-search"),
        # Certified budgets of 5.4e22 (axgd) and 3.3e8 (rgd) iterations.
        (RUN, "R = 15\nepsilon = 1e-2\n", None, False, "certified budget t = 5.37e+22"),
        (RUN, "R = 15\nepsilon = 1e-3\nsolver = rgd\ntreat_gconvex = true\n", None, False, "t = 3.34e+08"),
        # A single axgd run or restart round over the cap names the config values.
        (RUN, "R = 12\nepsilon = 1e-4\n", None, False,
         "error: epsilon = 0.0001, R = 12: certified budget t = 4.55e+19"),
        (RUN, "R = 12\nepsilon = 1e-4\nsolver = restart_sc\n", None, False,
         "error: epsilon = 0.0001, R = 12: certified budget t = 9.14e+16"),
        (RUN, "R = 1000\n", None, False, "R:"),
        # The README H^2 instance below the float64 floor (2.98e-17 there),
        # and at R = 4, epsilon = 1e-6, where reduce_gc needs at least 2.1e8
        # iterations, though no round of that bound needs more than 6.0e7.
        (RUN, README_H2 + "solver = reduce_gc\nepsilon = 1e-20\n", None, False, "epsilon = 1e-20 is below"),
        (RUN, README_H2 + "solver = reduce_gc\nepsilon = 1e-30\n", None, False, "epsilon = 1e-30 is below"),
        (RUN, README_H2 + "solver = restart_sc\nepsilon = 1e-40\n", None, False, "epsilon = 1e-40 is below"),
        (RUN, README_H2 + "R = 4\nsolver = reduce_gc\nepsilon = 1e-6\n", None, False,
         "error: epsilon = 1e-06, R = 4: the plan needs at least 2.1e+08 iterations"),
        (RUN, "solver = restart_sc\ntreat_gconvex = true\n", None, False, "restart reduction needs strictly positive"),
        (RUN, "anchor_count = 0\n", None, False, "anchor_count:"),
        (RUN, "anchor_count = -1\n", None, False, "anchor_count:"),
        (RUN, "anchor_count = 7\nanchors_file = {anchors}\n",
         "# class=hyperbolic d=2\n0 0 1\n0.5210953054937474 0 1.1276259652063807\n", False,
         "error: anchor_count: 7 does not match the 2 anchors of anchors_file"),
        (RUN, "seed = -1\n", None, False, "seed:"),
        # A value that does not parse names its key once.
        (RUN, "R = abc\n", None, False, "bad.cfg:1: R: could not convert string to float: 'abc'"),
        (RUN, "d = 2.5\n", None, False, "bad.cfg:1: d: invalid literal for int() with base 10: '2.5'"),
        (RUN, "\nseed = x\n", None, False, "bad.cfg:2: seed: invalid literal for int() with base 10: 'x'"),
        (RUN, "timing = maybe\n", None, False, "bad.cfg:1: timing: expected a boolean, got 'maybe'"),
        (["verify", "--seed", "-1"], "", None, False, "--seed:"),
        (SWEEP + ["--epsilons", "1e-2,abc"], "", None, False, "--epsilons: could not convert string to float: 'abc'"),
        (SWEEP + ["--conditions", "10,x"], "", None, False, "--conditions: could not convert string to float: 'x'"),
        # A point that cannot finish refuses the sweep before any point runs.
        (SWEEP + ["--solver", "reduce_gc", "--epsilons", "1e-2,1e-3,1e-20"], README_H2, None, False,
         "epsilon = 1e-20 is below"),
        (SWEEP + ["--solver", "rgd", "--conditions", "10,100,1e12"], README_H2, None, False,
         "certified budget t = 3.75e+13"),
        (RUN, "anchors_file = {anchors}\n", "# class=hyperbolic d=two\n0 0 1\n", False,
         "{anchors}:1: anchor file header: d: invalid literal for int() with base 10: 'two'"),
        (RUN, "anchors_file = {anchors}\n", "# class=hyperbolic d=2=3\n0 0 1\n", False,
         "{anchors}:1: anchor file header: d: invalid literal for int() with base 10: '2=3'"),
        (RUN, "anchors_file = {anchors}\n", "\n# class=torus d=2\n0 0 1\n", False,
         "{anchors}:2: anchor file header: unknown manifold class 'torus'"),
        (RUN, "anchors_file = {anchors}\n", "0 0 1\n", False, "{anchors}: anchor file is missing its header line"),
        (RUN, "anchors_file = {anchors}\n", "# class=spherical d=2\n0 0 1\n", False,
         "{anchors}:1: anchor file header: class 'spherical' does not match the requested space"),
    ],
    ids=[
        "empty-anchor-file", "missing-anchor-file", "off-model-anchor", "non-numeric-anchor",
        "hemisphere", "flat", "line-search-error", "axgd-budget", "rgd-budget",
        "axgd-round-over-cap", "restart-round-over-cap", "radius",
        "reduce-below-floor", "reduce-far-below-floor", "restart-below-floor", "reduce-over-cap",
        "restart-gconvex", "no-anchors", "negative-anchor-count", "anchor-count-not-the-files", "negative-seed",
        "radius-not-a-number", "d-not-an-integer", "seed-not-an-integer", "timing-not-a-boolean",
        "verify-negative-seed",
        "sweep-epsilon-not-a-number", "sweep-condition-not-a-number",
        "sweep-epsilon-below-floor", "sweep-condition-over-budget",
        "anchor-header-d-not-integer", "anchor-header-d-two-equals", "anchor-header-unknown-class",
        "anchor-header-missing", "anchor-header-class-mismatch",
    ],
)
def test_bad_input_exits_2_with_one_error_line(
    tmp_path, capsys, monkeypatch, argv, config, anchors, line_search_fails, where
):
    anchors_path = tmp_path / "anchors.txt"
    if anchors is not None:
        anchors_path.write_text(anchors)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config.format(anchors=anchors_path))
    if line_search_fails:
        monkeypatch.setattr(axgd, "binary_line_search", _exhausted_line_search)
    start = time.perf_counter()
    out = tmp_path / "out"
    code = main([arg.format(cfg=cfg, out=out) for arg in argv])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert where.format(anchors=anchors_path) in err, err
    # Neither the output nor its temporary file is left, also after a failed solve.
    assert {p.name for p in tmp_path.iterdir()} <= {"bad.cfg", "anchors.txt"}


def test_sweep_fits_rgd_without_log_deflation(tmp_path, capsys):
    # The certified descent budget is c / eps: its exponent is fitted as it is.
    cfg = tmp_path / "gc.cfg"
    cfg.write_text("R = 0.5\nanchor_count = 4\ntreat_gconvex = true\nseed = 3\n")
    argv = ["sweep", "--config", str(cfg), "--solver", "rgd", "--epsilons", "1e-2,1e-3,3e-4,1e-4"]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    series = [
        (float(eps), int(n))
        for eps, n in (re.match(r"epsilon=(\S+) grad_evals=(\d+)", line).groups() for line in lines[:-1])
    ]
    fitted = float(lines[-1].removeprefix("fitted_exponent="))
    assert fitted == pytest.approx(fit_rate_exponent(series, deflate_log=False), abs=1e-4)
    assert fitted == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_names_samples_below_one(capsys, samples):
    assert main(["verify", "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: --samples:"), err


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "config,where",
    [
        (f"d = {bench.max_d(5) + 1}\n", "d: "),
        (f"anchor_count = 3\nd = {bench.max_d(1) + 1}\n", "d: "),
        (f"anchor_count = {bench.max_anchor_count(2) + 1}\n", "anchor_count: "),
        (f"d = 100\nanchor_count = {bench.max_anchor_count(100) + 1}\n", "anchor_count: "),
        ("anchor_count = 1000000000\n", "anchor_count: "),
    ],
)
def test_sizes_above_their_caps_refused_before_allocating(tmp_path, capsys, config, where):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(config)
    code, peak = _traced_peak(main, ["run", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith(f"error: {where}"), err
    assert "memory budget" in err and peak < 1e6


def test_verify_samples_above_the_cap_refused_before_allocating(capsys):
    code, peak = _traced_peak(main, ["verify", "--samples", str(bench.MAX_VERIFY_SAMPLES + 1)])
    err = capsys.readouterr().err
    assert code == 2 and len(err.splitlines()) == 1 and err.startswith("error: --samples:"), err
    assert peak < 1e6


def test_sizes_at_their_caps_accepted():
    ExperimentConfig(d=bench.max_d(5)).validate()
    ExperimentConfig(d=bench.max_d(1), anchor_count=1).validate()
    ExperimentConfig(anchor_count=bench.max_anchor_count(2)).validate()


@pytest.mark.parametrize("d,count", [(2, 4000), (4000, 5)])
def test_instance_holds_less_than_its_budgeted_bytes(d, count):
    # The caps rest on these per-unit byte counts being upper bounds.
    cfg = ExperimentConfig(d=d, anchor_count=count, solver="reduce_gc", seed=1)
    _, peak = _traced_peak(build_instance, cfg)
    per_coord = bench.VECTOR_BYTES + count * bench.ANCHOR_COORD_BYTES
    assert peak <= (d + 1) * per_coord + count * bench.POINT_BYTES


def test_verify_cell_holds_less_than_its_budgeted_bytes():
    from curvopt import checks

    n = 1000
    _, peak = _traced_peak(checks.run_grid, None, n)
    assert peak <= n * bench.SAMPLE_BYTES


def _no_solve(*args, **kwargs):
    raise AssertionError("the sweep axis must be checked before the first solve")


@pytest.mark.parametrize(
    "axis,values,where",
    [
        ("--epsilons", "1e-2,1e-3,2e-3,3e-3", "epsilon: a sweep of 4 or more points"),
        ("--epsilons", ",", "epsilon: the sweep needs"),
        ("--epsilons", "1e-2,-1e-3", "epsilon: must be positive"),
        ("--conditions", "10,20,30,40", "condition: a sweep of 4 or more points"),
        ("--conditions", "", "condition: the sweep needs"),
    ],
)
def test_sweep_axis_checked_before_any_solve(tmp_path, capsys, monkeypatch, axis, values, where):
    monkeypatch.setattr(bench, "_trace_run", _no_solve)
    outdir = tmp_path / "out"
    assert main(["sweep", axis, values, "--output-dir", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {where}"), err
    assert not outdir.exists()


def test_condition_sweep_points_match_runs(tmp_path, capsys, cfg_file):
    outdir = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg_file), "--solver", "restart_sc", "--conditions", "10,300"]
    assert main(argv + ["--output-dir", str(outdir)]) == 0
    summary = (outdir / "restart_sc_summary.csv").read_text().splitlines()
    assert summary[0] == "condition,grad_evals,f_gap" and len(summary) == 3
    for cond in ("10", "300"):
        single = tmp_path / f"cond{cond}.cfg"
        single.write_text(f"{CFG_TEXT}solver = restart_sc\ncondition = {cond}\n")
        run_csv = tmp_path / f"run{cond}.csv"
        assert main(["run", "--config", str(single), "--output", str(run_csv)]) == 0
        assert (outdir / f"restart_sc_cond{cond}.csv").read_bytes() == run_csv.read_bytes()
    assert capsys.readouterr().out.startswith("condition=10 grad_evals=")


def _help_text(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    return capsys.readouterr().out


def test_readme_cli_block_matches_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    documented, cmd = {}, None
    for line in block.splitlines():
        if line.startswith("bench "):
            cmd = line.split()[1]
            documented[cmd] = set()
        if cmd is not None:
            documented[cmd].update(re.findall(r"--[a-z][a-z-]*", line))
    commands = re.search(r"\{([a-z,]+)\}", _help_text(capsys, [])).group(1).split(",")
    parsed = {
        c: set(re.findall(r"--[a-z][a-z-]*", _help_text(capsys, [c]))) - {"--help"} for c in commands
    }
    assert documented == parsed
