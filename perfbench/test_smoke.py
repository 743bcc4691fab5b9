"""Smoke test of the benchmark at tiny sizes on a fixed seed.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import os
import shutil
import subprocess
import sys

import pytest

import common
import pace
import run
from tracer import Tracer

SEED = 7
TINY = 0.1


@pytest.fixture(scope="module")
def corec():
    return common.import_corec()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_family_verifies(corec, workload):
    common.build_tables(corec, workload)
    wl = run.WORKLOAD_CLASSES[workload](corec, SEED, scale=TINY)
    try:
        ops = list(wl.once())
        for c in range(6):
            ops.extend(wl.cycle(c))
        tally = run.Tally()
        for op in ops:
            tally.run(op)
    finally:
        getattr(wl, "close", lambda: None)()
    assert set(tally.by_family) == set(wl.families)
    assert tally.failed / tally.attempted == 0, dict(tally.errors)


def test_trace_wraps_and_restores(corec):
    before = (corec.rules.build_table, corec.instances.build_table,
              corec.solver.Engine.__dict__["unfold"])
    tracer = Tracer(corec)
    tracer.install()
    try:
        assert corec.instances.build_table is corec.rules.build_table
        assert corec.instances.build_table is not before[1]
        tracer.begin_op(0)
        engine = corec.solver.Engine()
        sol = engine.solve(corec.frontends.parse_system(
            "kind stream\nx = 1 . x\n"))
        assert corec.instances.stream_take(sol["x"], 3) == [1, 1, 1]
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (corec.rules.build_table, corec.instances.build_table,
            corec.solver.Engine.__dict__["unfold"]) == before
    calls, self_s, total = tracer.self_times()
    assert calls["solver.solve"] == 1 and calls["instances.stream_take"] == 1
    assert calls["solver.observe"] == 1
    assert all(self_s[k] <= total[k] + 1e-12 for k in total)
    assert tracer.arena_nodes >= 1


def test_pace_scales_by_the_nearby_loop_times():
    clock = pace.Pace()
    clock.at = [0.0, 0.1, 0.2, 5.0, 5.1, 5.2]
    clock.took = [pace.REF_S, pace.REF_S, pace.REF_S] + [2 * pace.REF_S] * 3
    assert clock.factor(0.1, 0.1) == 1.0
    assert clock.factor(5.1, 5.2) == 0.5
    assert clock.factor(-9.0, -8.0) == 1.0  # outside the timings: the nearest
    assert clock.factor(99.0, 99.5) == 0.5
    assert clock.factor(0.1, 4.9) == pytest.approx(2 / 3)  # spans both
    clock = pace.Pace()
    clock.tick()
    clock.tick()
    assert len(clock.took) == pace.BURST and all(t > 0 for t in clock.took)


def test_paced_latencies_take_the_median_of_each_place():
    tally, clock = run.Tally(), pace.Pace()
    clock.at, clock.took = [0.0], [pace.REF_S / 2]
    tally.latency = [9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    tally.start = [0.0] * 7
    assert run.paced_latencies(tally, clock, 1, 3, 1) == \
        [18.0, 6.0, 8.0, 6.0, 8.0, 6.0, 8.0]
    # six one-operation cycles that repeat every second cycle
    assert run.paced_latencies(tally, clock, 1, 6, 2) == \
        [18.0, 6.0, 8.0, 6.0, 8.0, 6.0, 8.0]
    assert run.paced_latencies(tally, clock, 1, 6, 1) == [18.0] + [7.0] * 6


def test_percentile_is_a_smooth_order_statistic():
    values = list(range(1, 100))
    assert run.percentile(values, 50) == pytest.approx(50)
    assert 88 < run.percentile(values, 90) < 92
    assert run.percentile([3.0] * 40, 90) == pytest.approx(3.0)
    # one far sample moves it a little, not to the far sample
    assert run.percentile([1.0] * 89 + [2.0] * 11, 90) < 2.0


def test_probe_finds_a_finite_ceiling(corec):
    class Capped:
        probe_start, probe_cap = 4, 64

        def probe(self, n):
            if n > 37:
                raise RecursionError
            return True

    assert run.max_depth_ok(Capped()) == (37, "RecursionError")


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_prefix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
