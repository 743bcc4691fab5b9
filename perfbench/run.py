"""The corec benchmark: one closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one caller: each operation is issued after the
previous one returned.  Inputs and expected answers are made from the seed
before timing starts.  ``--trace 0`` measures the end-to-end metrics for S
seconds; ``--trace 1`` runs a fixed number of workload cycles, each both
untraced and traced, and reports per-layer metrics from the spans.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

import common
import wl_cli
import wl_equiv
import wl_grammar
import wl_stream
from common import BenchSetupError, ROOT
from pace import Pace, REF_S, time_loop

SETUP_SPAWNS = 11
TRACE_CYCLES = {"stream_prefix": 4, "grammar_member": 2, "equivalence": 4,
                "cli_files": 2}
MODULES = ("init", "behavior", "checking", "cli", "errors", "frontends",
           "instances", "rules", "solver", "terms")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    wl_stream.StreamPrefix, wl_grammar.GrammarMember, wl_equiv.Equivalence,
    wl_cli.CliFiles)}
WORKLOADS = tuple(WORKLOAD_CLASSES)
# every operation family of every workload, in a fixed order
FAMILIES = [fam for cls in WORKLOAD_CLASSES.values() for fam in cls.families]


# ---------------------------------------------------------------------------
# Running operations


class Tally:
    """Latencies and verdicts of the operations of one pass."""

    def __init__(self):
        self.latency = []
        self.start = []
        self.by_family = defaultdict(list)
        self.failed = 0
        self.errors = Counter()
        self.units = 0

    def run(self, op, tracer=None, op_id=0, pace=None):
        if pace is not None:
            pace.tick()
        if tracer is not None:
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            dt = perf_counter() - t0
            ok = False
            self.errors[f"{op.family}:{type(exc).__name__}"] += 1
        else:
            dt = perf_counter() - t0
            ok = op.verify(answer)
            if not ok:
                self.errors[f"{op.family}:wrong answer"] += 1
        if tracer is not None:
            tracer.end_op()
        self.latency.append(dt)
        self.start.append(t0)
        self.by_family[op.family].append(dt)
        self.units += op.units
        if not ok:
            self.failed += 1

    @property
    def attempted(self):
        return len(self.latency)


def timed_loop(wl, seconds):
    """Once-per-run operations, then whole cycles until time is up.

    A full garbage collection before each cycle, outside any operation,
    starts every cycle from the same heap state, so the collector's pauses
    fall on the same operations.  The reference loop of ``pace`` is timed
    between operations.  Returns the tally, the pace, the number of cycles
    and the elapsed time.
    """
    tally, clock = Tally(), Pace()
    gc.collect()
    t0 = perf_counter()
    for op in wl.once():
        tally.run(op, pace=clock)
    cycles = 0
    while not cycles or perf_counter() - t0 < seconds:
        ops = wl.cycle(cycles)
        gc.collect()
        for op in ops:
            tally.run(op, pace=clock)
        cycles += 1
    clock.tick()
    return tally, clock, cycles, perf_counter() - t0


def paced_latencies(tally, clock, n_once, n_cycles, period):
    """Each operation's latency at the reference pace, replaced by the
    median of the same operation over the run.

    Cycle c runs the same operations, in the same order, as cycle
    c + ``period``, so the median of each operation's repeats is steady
    against the bursts the pace does not catch; the once-per-run
    operations keep their own.
    """
    paced = [dt * clock.factor(t, t + dt)
             for dt, t in zip(tally.latency, tally.start)]
    once, rest = paced[:n_once], paced[n_once:]
    per_cycle = len(rest) // n_cycles
    stride = per_cycle * min(period, n_cycles)
    same = [statistics.median(rest[k::stride]) for k in range(stride)]
    return once + [same[k % stride] for k in range(len(rest))]


def paired_passes(wl, cycles, tracer):
    """The once-per-run operations and ``cycles`` cycles, each batch run
    both untraced and, on fresh operations, traced.

    Pairing the batches exposes both passes to the same state of the host;
    an uncounted warm-up cycle goes first, and the pass that goes first
    alternates, because a batch runs faster right after its twin.
    """
    for op in wl.cycle(0):
        op.run()
    plain, traced = Tally(), Tally()
    for c in range(-1, cycles):
        for tally in ((plain, traced) if c % 2 else (traced, plain)):
            ops = wl.once() if c < 0 else wl.cycle(c)
            gc.collect()
            if tally is traced:
                tracer.install()
            try:
                for op in ops:
                    tally.run(op, tracer if tally is traced else None,
                               traced.attempted)
            finally:
                tracer.uninstall()
    return plain, traced


def percentile(values, q, steps=16):
    """The Harrell-Davis estimate of the q-th percentile: a mean of all
    the ordered samples, the k-th of n weighted by the Beta(q(n+1),
    (1-q)(n+1)) mass over ((k-1)/n, k/n].  Unlike a single order
    statistic it does not jump when the samples near the percentile are
    few or far apart, so it depends less on the seed's inputs."""
    ordered = sorted(values)
    n = len(ordered)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for k in range(n):
        mass = 0.0
        for j in range(steps):  # midpoint rule over ((k-1)/n, k/n]
            x = (k + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
                             - log_beta)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


# ---------------------------------------------------------------------------
# Set-up time and the recursion-ceiling probe


def setup_seconds(workload):
    child = os.path.join(ROOT, "perfbench", "setup_child.py")
    times = []
    for _ in range(SETUP_SPAWNS):
        factor = REF_S / statistics.median(time_loop() for _ in range(5))
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, child, workload],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append((perf_counter() - t0) * factor)
        if proc.returncode != 0:
            err = proc.stderr.decode(errors="replace")[-500:]
            raise BenchSetupError(f"set-up failed: {err}")
    return statistics.median(times)


def max_depth_ok(wl):
    """Largest size that completes under the default recursion limit.

    Doubling from ``probe_start``, then bisection to within 1/32 of the
    last good size; capped at ``probe_cap``.  The recursion limit is left
    as the interpreter set it.  Returns (size, exception name or None).
    """

    def attempt(n):
        try:
            return wl.probe(n), "wrong answer"
        except RecursionError:
            return False, "RecursionError"
        except Exception as exc:  # noqa: BLE001 - recorded as the ceiling
            return False, type(exc).__name__

    lo, hi, err = 0, None, None
    n = wl.probe_start
    while hi is None:
        ok, why = attempt(n)
        if not ok:
            hi, err = n, why
        elif n >= wl.probe_cap:
            return n, None
        else:
            lo, n = n, min(2 * n, wl.probe_cap)
    while hi - lo > max(1, lo // 32):
        mid = (lo + hi) // 2
        ok, why = attempt(mid)
        if ok:
            lo = mid
        else:
            hi, err = mid, why
    return lo, err


# ---------------------------------------------------------------------------
# Source size


def sloc(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.strip().startswith("#"))


def sloc_metrics():
    pkg = os.path.join(common.SRC, "corec")
    out = {}
    for mod in MODULES:
        fname = "__init__.py" if mod == "init" else f"{mod}.py"
        path = os.path.join(pkg, fname)
        out[f"{mod}.sloc"] = sloc(path) if os.path.exists(path) else 0
    out["src.sloc"] = sum(sloc(p) for p in glob.glob(
        os.path.join(pkg, "**", "*.py"), recursive=True))
    return out


# ---------------------------------------------------------------------------
# The two modes


def run_untraced(corec, workload, seed, seconds):
    setup_s = setup_seconds(workload)
    common.build_tables(corec, workload)
    wl = WORKLOAD_CLASSES[workload](corec, seed)
    try:
        tally, clock, cycles, elapsed = timed_loop(wl, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        depth, depth_err = max_depth_ok(wl)
    finally:
        getattr(wl, "close", lambda: None)()
    n = tally.attempted
    n_once = len(wl.once())
    latency = paced_latencies(tally, clock, n_once, cycles, wl.period)
    print(f"# {workload} seed={seed}: {n} ops, {cycles} cycles, "
          f"{elapsed:.3f} s, {sum(tally.latency):.3f} s in operations "
          f"({sum(latency):.3f} s at the reference pace), "
          f"reference loop median {statistics.median(clock.took) * 1e3:.3f} "
          f"ms over {len(clock.took)} timings, "
          f"failed_share={tally.failed / n:.6f}, "
          f"errors={dict(tally.errors)}, latency samples={n}, "
          f"max_depth_ok={depth} (stopped by {depth_err})")
    metrics = {
        "ops_per_s": (n / sum(latency), "1/s"),
        "op_p50_ms": (percentile(latency, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latency, 90) * 1e3, "ms"),
        "ok_share": ((n - tally.failed) / n, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "max_depth_ok": (depth, "count"),
    }
    return tally, metrics


def run_traced(corec, workload, seed):
    from tracer import PARSERS, Tracer

    tracer = Tracer(corec)
    tracer.install()
    try:
        tracer.begin_op(-1)
        common.build_tables(corec, workload)
        tracer.end_op()
    finally:
        tracer.uninstall()
    wl = WORKLOAD_CLASSES[workload](corec, seed)
    cycles = TRACE_CYCLES[workload]
    try:
        plain, traced = paired_passes(wl, cycles, tracer)
    finally:
        getattr(wl, "close", lambda: None)()

    calls, self_s, total = tracer.self_times()

    def layer_self(layer):
        return sum((v for k, v in self_s.items()
                    if k.startswith(layer + ".")), 0.0)

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    parse_s = sum(total[k] for k in PARSERS)
    metrics = {
        "solver.observe.self_s": (self_s["solver.observe"], "s"),
        "solver.unfold.self_s": (self_s["solver.unfold"], "s"),
        "solver.unfold.calls": (calls["solver.unfold"], "count"),
        "solver.solve.self_s": (self_s["solver.solve"], "s"),
        "solver.self_s": (layer_self("solver"), "s"),
        "solver.arena_nodes": (tracer.arena_nodes, "count"),
        "solver.memo_entries": (tracer.memo_entries, "count"),
        "solver.nodes_per_unit": (
            tracer.arena_nodes / max(1, traced.units), "count"),
        "solver.memo_fill": (
            tracer.memo_entries / max(1, tracer.arena_nodes), "share"),
        "rules.self_s": (layer_self("rules"), "s"),
        "rules.calls": (layer_calls("rules"), "count"),
        "checking.find_divergence.self_s": (
            self_s["checking.find_divergence"], "s"),
        "checking.bounded_equal.self_s": (
            self_s["checking.bounded_equal"], "s"),
        "checking.bounded_equal.calls": (
            calls["checking.bounded_equal"], "count"),
        "checking.diagram_check.self_s": (
            self_s["checking.diagram_check"], "s"),
        "checking.run_suite.self_s": (self_s["checking.run_suite"], "s"),
        "instances.oracle_eval.self_s": (
            self_s["instances.oracle_eval"], "s"),
        "instances.language_member.self_s": (
            self_s["instances.language_member"], "s"),
        "instances.stream_take.self_s": (
            self_s["instances.stream_take"], "s"),
        "frontends.self_s": (layer_self("frontends"), "s"),
        "frontends.parse_bytes_per_s": (
            tracer.parse_bytes / parse_s if parse_s else 0.0, "B/s"),
        "cli.self_s": (layer_self("cli"), "s"),
        # both passes print the same, so halve the workload's count
        "cli.out_bytes": (getattr(wl, "out_bytes", 0) // 2, "B"),
        "trace.overhead_share": (
            (sum(traced.latency) - sum(plain.latency)) / sum(plain.latency),
            "share"),
        "trace.spans": (len(tracer.start), "count"),
    }
    for fam in FAMILIES:
        times = plain.by_family.get(fam)
        metrics[f"op.{fam}.p50_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    for name, value in sloc_metrics().items():
        metrics[name] = (value, "lines")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.csv")
    tracer.write(spans_path)
    print(f"# {workload} seed={seed}: {plain.attempted} ops untraced in "
          f"{sum(plain.latency):.3f} s, "
          f"traced in {sum(traced.latency):.3f} s; "
          f"{len(tracer.start)} spans written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    plain.latency += traced.latency
    plain.failed += traced.failed
    plain.errors += traced.errors
    if plain.errors:
        print(f"# errors: {dict(plain.errors)}")
    return plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        corec = common.import_corec()
        if args.trace:
            tally, metrics = run_traced(corec, args.workload, args.seed)
        else:
            tally, metrics = run_untraced(corec, args.workload, args.seed,
                                          args.seconds)
    except (BenchSetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
