"""Tests of the benchmark's own machinery: inputs, spans and failure counts.

Run with ``python3 -m pytest perfbench/tests``.
"""

import math

import numpy as np
import pytest

import curvopt
import hostspeed
import run
import tracer
import workloads


@pytest.mark.parametrize("name", sorted(workloads.SOLVER_SPECS))
def test_anchors_depend_on_the_seed_only_and_stay_in_the_cap(name):
    spec = workloads.SOLVER_SPECS[name]
    a = workloads.draw_anchors(spec, 7)
    assert np.array_equal(a, workloads.draw_anchors(spec, 7))
    assert not np.array_equal(a, workloads.draw_anchors(spec, 8))
    sign = spec.sign
    pole = np.zeros(spec.d + 1)
    pole[-1] = 1.0
    r = curvopt.distance(pole, a, sign)
    cap = 0.75 * spec.R
    if sign > 0:
        cap = min(cap, 0.95 * (math.pi / 2 - 1.75 * spec.R))
    assert np.all(r <= cap + 1e-12)
    assert math.isclose(r.max(), cap, rel_tol=1e-12)
    sq = np.sum(a * a, axis=1) - (2 * a[:, -1] ** 2 if sign < 0 else 0)
    assert np.allclose(sq, sign)


def test_anchor_file_round_trips_through_the_library(tmp_path):
    spec = workloads.SOLVER_SPECS["reduce-s10"]
    coords = workloads.draw_anchors(spec, 3)
    path = tmp_path / "anchors.txt"
    workloads.write_anchor_file(path, spec, coords)
    space, anchors = curvopt.load_anchors(str(path))
    assert space.sign == spec.sign
    assert np.allclose(np.stack([p.coords for p in anchors]), coords, atol=1e-15)


def test_self_time_subtracts_direct_children():
    # parent 0 spans [0, 100]; children 1 [10, 30] and 2 [40, 90]; 3 [50, 60] is 2's child.
    spans = [
        (1, "a.child", 1, 0, 10, 30),
        (3, "b.leaf", 1, 2, 50, 60),
        (2, "a.child", 1, 0, 40, 90),
        (0, "a.top", 1, -1, 0, 100),
        (4, "a.top", 0, -1, 0, 1000),  # another run: ignored
    ]
    stats = tracer.SpanStats(spans, run=1)
    assert stats.calls == {"a.top": 1, "a.child": 2, "b.leaf": 1}
    assert stats.self_ns == {"a.top": 30, "a.child": 60, "b.leaf": 10}
    assert stats.under["a.child", "a.top"] == 2
    assert stats.inclusive_s("a.child") == 70e-9


def test_install_rebinds_every_importer_and_uninstall_restores():
    originals = {
        (m, a): getattr(m, a)
        for m in [curvopt, curvopt.objectives, curvopt.reductions, curvopt.geomap]
        for a in ("from_ball", "make_frame", "inner")
        if hasattr(m, a)
    }
    checks_before = list(curvopt.checks.ALL_CHECKS)
    grad_c = curvopt.FrechetObjective.grad_c
    tr = tracer.Tracer()
    tr.install(curvopt)
    try:
        assert curvopt.objectives.from_ball is curvopt.geomap.from_ball
        assert curvopt.reductions.make_frame is not originals[curvopt.reductions, "make_frame"]
        assert curvopt.FrechetObjective.grad_c is not grad_c
        tr.run = tracer.SOLVE
        space = curvopt.CurvatureClass.hyperbolic()
        frame = curvopt.make_frame(curvopt.pole(2, space), 1.0)
        curvopt.objectives.from_ball(frame, np.array([0.1, 0.2]))
    finally:
        tr.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn
    assert curvopt.checks.ALL_CHECKS == checks_before
    assert curvopt.FrechetObjective.grad_c is grad_c
    stats = tracer.SpanStats(tr.spans, tracer.SOLVE)
    assert stats.calls["geomap.make_frame"] == 1
    assert stats.calls["geomap.from_ball"] == 1
    assert stats.under["manifolds.inner", "geomap.make_frame"] > 0


def test_result_hook_reads_line_search_probes():
    tr = tracer.Tracer()
    hooked = tr.wrap("axgd.binary_line_search", lambda: type("R", (), {"probes": 3})())
    hooked()
    assert tr.results == [(tracer.SETUP, "axgd.binary_line_search", 3)]


def test_ledger_counts_each_failed_operation_once():
    ledger = run.Ledger()
    ledger.add(1, [])
    ledger.add(1, ["gap too large", "eval count off"])
    ledger.add(180, ["violation a", "violation b"])
    ledger.add(0, ["count clash"])
    assert ledger.attempted == 182
    assert ledger.failed == 4


def test_grid_violation_is_a_failure():
    grid = workloads.GridWorkload(curvopt, seed=0)
    results = [curvopt.checks.CheckResult("x", 0.0, 1.0)] * 179
    results.append(curvopt.checks.CheckResult("y", 2.0, 1.0))
    outcome = grid.check(results)
    assert outcome.counts["checks.violations"] == 1
    assert len(outcome.failures) == 1


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.RunError):
        run.main(["--workload", "axgd-h2", "--seed", "1", "--seconds", "1"])
    assert capsys.readouterr().out == ""


class _FixedProbe(hostspeed.HostSpeed):
    """A host whose probe reads a scripted sequence of times."""

    def __init__(self, times):
        super().__init__()
        self._times = iter(times)

    def probe(self):
        self.probes.append(next(self._times))
        return self.probes[-1]


def test_stopwatch_scales_each_block_by_its_neighbouring_probes(monkeypatch):
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 3.5, 3.5])
    monkeypatch.setattr(hostspeed, "_clock", lambda: next(clock))
    host = _FixedProbe([0.4e-3, 0.8e-3, 0.8e-3, 0.4e-3])
    with hostspeed.Stopwatch(host) as watch:
        watch.lap()
        watch.lap()
    assert [b[0] for b in watch.blocks] == [1.0, 2.0, 0.5]
    assert watch.wall == 3.5
    # Reference 0.4 ms: the blocks ran at 2/3, 1/2 and 2/3 of reference speed.
    assert watch.corrected(0.4e-3) == pytest.approx(1.0 / 1.5 + 2.0 / 2.0 + 0.5 / 1.5)
