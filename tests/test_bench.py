import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvopt import axgd, solve_gconvex_via_sc, with_constants
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


class TestRunExperiment:
    def test_axgd_report(self):
        cfg = ExperimentConfig(epsilon=1e-3, seed=5)
        report = run_experiment(cfg)
        assert report.final_gap <= 1e-3
        assert report.rows[0].iter == 1
        assert report.total_evals == report.rows[-1].grad_evals
        assert all(r.f_gap >= 0 for r in report.rows)

    def test_csv_schema(self, tmp_path):
        cfg = ExperimentConfig(epsilon=1e-2, seed=5, output=str(tmp_path / "out.csv"))
        run_experiment(cfg)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == "iter,grad_evals,f_gap,dist_to_opt,lambda,gamma_hat,wall_ns"
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[-1] == "0"  # deterministic wall column by default
        float(first[2]), float(first[3])

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
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "curvopt", *args], capture_output=True, text=True
        )

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
    series = run_sweep(cfg, [1e-1, 1e-2, 1e-3], str(tmp_path))
    evals = [n for _, n, _ in series]
    assert evals == sorted(evals)
    for eps, _, gap in series:
        assert gap <= eps


def _exhausted_line_search(*args, **kwargs):
    raise axgd.LineSearchError("line-search probe budget exhausted")


@pytest.mark.parametrize(
    "config,anchors,line_search_fails,where",
    [
        ("anchors_file = {anchors}\n", "# class=hyperbolic d=2\n", False, "{anchors}:"),
        ("anchors_file = {anchors}.missing\n", None, False, "{anchors}.missing"),
        (
            "manifold = spherical\ncurvature = 1.0\nR = 0.5\nanchors_file = {anchors}\n",
            "# class=spherical d=2\n0 0 1\n0 0 2\n",
            False,
            "{anchors}:3:",
        ),
        ("anchors_file = {anchors}\n", "# class=hyperbolic d=2\n0 0 1\n0 0 abc\n", False, "{anchors}:3:"),
        ("manifold = spherical\ncurvature = 4.0\nR = 0.8\n", None, False, "R:"),
        ("curvature = 0\n", None, False, "curvature:"),
        ("epsilon = 1e-2\n", None, True, "line-search"),
        # Certified budgets of 2.4e49 (axgd) and 1.05e8 (rgd) iterations.
        ("R = 20\nepsilon = 1e-2\n", None, False, "certified budget t = 2.45e+49"),
        ("R = 20\nepsilon = 1e-2\nsolver = rgd\ntreat_gconvex = true\n", None, False, "t = 1.05e+08"),
    ],
    ids=[
        "empty-anchor-file", "missing-anchor-file", "off-model-anchor", "non-numeric-anchor",
        "hemisphere", "flat", "line-search-error", "axgd-budget", "rgd-budget",
    ],
)
def test_bad_input_exits_2_with_one_error_line(
    tmp_path, capsys, monkeypatch, config, anchors, line_search_fails, where
):
    anchors_path = tmp_path / "anchors.txt"
    if anchors is not None:
        anchors_path.write_text(anchors)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config.format(anchors=anchors_path))
    if line_search_fails:
        monkeypatch.setattr(axgd, "binary_line_search", _exhausted_line_search)
    start = time.perf_counter()
    code = main(["run", "--config", str(cfg), "--output", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert where.format(anchors=anchors_path) in err, err


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
