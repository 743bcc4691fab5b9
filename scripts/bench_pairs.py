#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --base HEAD~1 --out BENCH_28.json \\
        --seed 3 --seconds 20 --workloads stream_prefix:10 grammar_member:3

The parent (``--base``) is exported with ``git archive`` into a temporary
directory; the change is the working tree.  Each checkout's own, unchanged ``perfbench/run.py`` runs
untraced at the given seed and seconds, one run at a time: ``NAME:PAIRS``
runs PAIRS pairs of a workload (default ``--pairs``), the parent first in
odd pairs and the change first in even ones.  The output file records, per
workload and end-to-end metric, every run's value, both medians, the
parent's interquartile range and the pairs the change won, by the
direction ``BENCHMARK.json`` gives; each side's lowest ``ok_share``; and
every ``*.sloc`` of both sides.  The script exits 1 when any run reports
``correct: false`` or fails, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("stream_prefix", "grammar_member", "equivalence", "cli_files")
SLOC = ("import json, sys; sys.path.insert(0, 'perfbench'); "
        "from run import sloc_metrics; print(json.dumps(sloc_metrics()))")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, into: str) -> str:
    """The files of ``rev`` under ``into``, by ``git archive``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout,
                   check=True)
    return into


def run_once(checkout, workload, seed, seconds):
    """The JSON result of one untraced run, or None if the run failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summary(base, change, better):
    """Medians, the parent's interquartile range and the change's wins."""
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 \
        else (base[0],) * 3
    sign = {"higher": 1, "lower": -1}.get(better)
    return {
        "better": better,
        "base": base,
        "change": change,
        "base_median": statistics.median(base),
        "change_median": statistics.median(change),
        "base_iqr": q3 - q1,
        "change_wins": None if sign is None else sum(
            sign * (c - b) > 0 for b, c in zip(base, change)),
        "pairs": len(base),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="the parent revision (default HEAD)")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        metavar="NAME[:PAIRS]")
    args = parser.parse_args(argv)

    plan = []
    for item in args.workloads:
        name, _, pairs = item.partition(":")
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
        plan.append((name, int(pairs) if pairs else args.pairs))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"base": export(args.base, os.path.join(tmp, "base")),
                 "change": ROOT}
        result = {
            "base": git("rev-parse", args.base),
            "change": f"working tree on {git('rev-parse', 'HEAD')}"
            + (" (modified)" if git("status", "--porcelain") else ""),
            "seed": args.seed,
            "seconds": args.seconds,
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                    f"Python {platform.python_version()}",
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "workloads": {},
            "sloc": {side: json.loads(subprocess.run(
                [sys.executable, "-c", SLOC], cwd=path, check=True,
                capture_output=True, text=True).stdout)
                for side, path in sides.items()},
        }
        for name, pairs in plan:
            kept = []  # the pairs whose two runs both finished
            for k in range(pairs):
                out = {}
                for side in ("base", "change")[::1 if k % 2 == 0 else -1]:
                    print(f"{name} pair {k + 1}/{pairs}: {side}",
                          file=sys.stderr)
                    out[side] = run_once(sides[side], name, args.seed,
                                         args.seconds)
                    correct &= out[side] is not None and \
                        out[side]["correct"] is True
                if None not in out.values():
                    kept.append(out)
            values = {side: {m: [p[side]["metrics"][m]["value"] for p in kept]
                             for m in kept[0][side]["metrics"]} if kept else {}
                      for side in ("base", "change")}
            result["workloads"][name] = {
                "pairs_kept": len(kept),
                "correct": len(kept) == pairs and all(
                    p[side]["correct"] is True for p in kept for side in p),
                "ok_share": {side: min(v["ok_share"]) if kept else None
                             for side, v in values.items()},
                "metrics": {m: summary(values["base"][m],
                                       values["change"][m], better.get(m))
                            for m in values["base"]},
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
                fh.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
