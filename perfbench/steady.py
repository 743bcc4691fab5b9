"""Steadiness check: repeat runs over seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py [--workloads W ...] [--seeds N]
        [--first-seed S] [--write-bounds] [--json PATH]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median.  The suggested bound of a metric is four times its
largest spread over the workloads, at least its floor (0.05 for timings
and memory, 0.02 for the exact counts) and at most 0.25; ``setup_s``
always gets 0.25, the largest bound.  ``--write-bounds``
stores the suggestions in ``BENCHMARK.json``; ``--json`` writes every
run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
MIN_BOUND, MAX_BOUND = 0.05, 0.25
FLOORS = {"ok_share": 0.02, "max_depth_ok": 0.02}


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--write-bounds", action="store_true")
    parser.add_argument("--json", help="write every run's metrics here")
    args = parser.parse_args(argv)

    worst = {}
    everything = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds) for s in
                range(args.first_seed, args.first_seed + args.seeds)]
        everything[workload] = runs
        print(f"{workload}: {len(runs)} runs")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            med, q1, q3, sp = spread(values)
            flag = ""
            if name != "setup_s" and sp > metric["bound"] / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:14s} median {med:12.6g}  Q1 {q1:12.6g}  "
                  f"Q3 {q3:12.6g}  spread {sp:7.4f}  bound "
                  f"{metric['bound']}{flag}")
            worst[name] = max(worst.get(name, 0.0), sp)

    print("suggested bounds:")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        if name not in worst:
            continue
        bound = MAX_BOUND if name == "setup_s" else round(
            min(MAX_BOUND, max(FLOORS.get(name, MIN_BOUND), 4 * worst[name])),
            2)
        print(f"  {name}: {bound}")
        if args.write_bounds:
            metric["bound"] = bound
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(everything, fh, indent=1)
    if args.write_bounds:
        with open(BENCHMARK, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
