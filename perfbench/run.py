"""Orion benchmark: one workload, timed end to end or traced per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_average --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``sweep_average`` and ``sweep_data`` (a design-space sweep
through ``repro.exp.run_points`` in average and data activity mode) and
``serve_mix`` (a seeded job mix against one ``repro serve`` process).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs with
spans around the calls into each layer and prints the per-layer
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import SRC, WORKLOADS, emit, log  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"error: the program's sources are missing: no package "
            f"under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    if args.workload == "serve_mix":
        import servemix as workload
    else:
        import sweeps as workload
    if args.setup_probe:
        workload.setup(args.workload)
        print("ready", flush=True)
        return 0
    correct, attempted, failed, metrics, extra = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    if extra:
        print("per-layer figures of this workload only:")
        for name, (value, unit) in extra.items():
            print(f"  {name:<32s} {value:>16.6g} {unit}")
    emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
