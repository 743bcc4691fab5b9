#!/usr/bin/env python3
"""Where the cyclic collector's full collections land in `cli_files` cycles.

Run from the repository root, for example:

    python3 scripts/gc_landing.py --base HEAD~1 --seeds 1 7 --cycles 6

The parent (``--base``, default ``HEAD``) is exported with ``git archive``
into a temporary directory; the change is the working tree.  For each side
and seed, a child process imports that checkout's own, unchanged
``perfbench`` workloads and runs ``cli_files`` cycles as its
``timed_loop`` does: the once-per-run operations, then each cycle after a
``gc.collect()``, every operation through the run's ``Tally`` and
``Pace``.  ``gc.callbacks`` count the collections of each generation per
operation of the cycle.  Per cycle the script prints the operation each
full (generation-2) collection lands on, with the number of young
(generation-0) collections before it, and the young collections through
the cycle's last ``cli_solve_text`` (the large one), whose end the full
collection should stay before.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import ROOT, export

WORKLOAD = "cli_files"


def count_cycles(checkout, seed, cycles):
    """Run in the child: one JSON line per cycle of ``checkout``'s
    ``cli_files`` workload at ``seed``."""
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import common
    import run

    corec = common.import_corec()
    common.build_tables(corec, WORKLOAD)
    wl = run.WORKLOAD_CLASSES[WORKLOAD](corec, seed)
    at = [0]  # the operation running, its index in the cycle
    young, full = [], []

    def seen(phase, info):
        if phase == "start" and info["generation"] == 0:
            young[at[0]] += 1
        elif phase == "start" and info["generation"] == 2:
            full.append((at[0], sum(young)))

    try:
        tally, clock = run.Tally(), run.Pace()
        gc.collect()
        for op in wl.once():
            tally.run(op, pace=clock)
        for k in range(cycles):
            ops = wl.cycle(k)
            young[:] = [0] * len(ops)
            del full[:]
            gc.collect()
            gc.callbacks.append(seen)
            for i, op in enumerate(ops):
                at[0] = i
                tally.run(op, pace=clock)
            gc.callbacks.remove(seen)
            names = [op.family for op in ops]
            last = len(names) - 1 - names[::-1].index("cli_solve_text")
            print(json.dumps({"families": names, "full": full, "last": last,
                              "through": sum(young[:last + 1])}), flush=True)
    finally:
        getattr(wl, "close", lambda: None)()
    return 0 if tally.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="the parent revision (default HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--cycles", type=int, default=6)
    parser.add_argument("--checkout", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.checkout:
        return count_cycles(args.checkout, args.seeds[0], args.cycles)

    status = 0
    with tempfile.TemporaryDirectory(prefix="gc_landing_") as tmp:
        sides = {"base": export(args.base, os.path.join(tmp, "base")),
                 "change": ROOT}
        for seed in args.seeds:
            for side, path in sides.items():
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--checkout",
                     path, "--seeds", str(seed), "--cycles",
                     str(args.cycles)],
                    cwd=path, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(f"{side} seed {seed}: run failed (exit "
                          f"{proc.returncode}): {proc.stderr.strip()[-500:]}",
                          file=sys.stderr)
                    status = 1
                for k, line in enumerate(proc.stdout.split("\n")[:-1]):
                    cycle = json.loads(line)
                    names = cycle["families"]
                    lands = ", ".join(f"op {i} {names[i]} after {n} young"
                                      for i, n in cycle["full"]) or "none"
                    print(f"{side} seed {seed} cycle {k + 1}: full "
                          f"collection at {lands}; young through op "
                          f"{cycle['last']} (cli_solve_text): "
                          f"{cycle['through']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
