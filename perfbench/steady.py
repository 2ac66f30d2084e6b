"""Steadiness check: run each workload repeatedly in two sets and
compare the sets.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seconds N]

Each run gets a seed of its own (1, 2, ... in the order the runs are
made).  For every end-to-end metric the command prints, per set, the
median and quartiles and the spread (the distance between the quartiles
as a share of the median), and says whether the sets agree within the
metric's bound in BENCHMARK.json: every spread within the bound, the
two medians apart by no more than the bound (in either direction), and
the same share of failed operations in every run.  The spread of
``setup_s`` is printed but not held to its bound: one run sets up only
a few times, and the bound applies to its median.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, quartiles  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    results = {w: ([], []) for w in workloads}
    seed = 1
    for s in range(2):
        for workload in workloads:
            for _ in range(args.runs):
                out = run_once(workload, seed, args.seconds)
                results[workload][s].append(out)
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']} "
                      + json.dumps({k: v["value"] for k, v
                                    in out["metrics"].items()}),
                      flush=True)
                seed += 1
    agree = True
    for workload in workloads:
        sets = results[workload]
        shares = {Fraction(r["failed"], r["attempted"])
                  for runs in sets for r in runs}
        ok = len(shares) == 1 and all(r["correct"] for runs in sets
                                      for r in runs)
        agree &= ok
        print(f"\n{workload}: failed share {sorted(map(str, shares))}, "
              f"all correct: {ok}")
        for name, spec in metrics.items():
            bound = spec["bound"]
            cells, medians, fine = [], [], True
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                medians.append(q2)
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {spread:.1%}")
                if name != "setup_s" and spread > bound:
                    fine = False
            moved = (medians[1] - medians[0]) / medians[0]
            cells.append(f"moved {moved:+.1%}")
            if abs(moved) > bound:
                fine = False
            agree &= fine
            print(f"  {name:<18s} bound {bound:.0%}  "
                  + " | ".join(cells)
                  + f"  {'agree' if fine else 'DISAGREE'}")
    print("\nall sets agree within bounds" if agree
          else "\nsets do NOT agree within bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
