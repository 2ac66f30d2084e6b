"""Shared helpers of the Orion benchmark: paths, statistics, spans,
memory readings and the result line.

Nothing here imports ``repro``: the entry point checks that the
program's sources are present before any workload module loads them.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this
#: directory); the program's sources live under ``<ROOT>/src``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, journals and trace files, inside the
#: checkout and removed or overwritten by later runs.
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("sweep_average", "sweep_data", "serve_mix")


class CheckFailed(AssertionError):
    """An output check found a wrong result."""


def log(message: str) -> None:
    """Progress and check notes go to stderr; stdout carries the
    metric table and the final JSON line."""
    print(message, file=sys.stderr, flush=True)


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds.  (Not an
    ``assert``: the checks must also run under ``python -O``.)"""
    if not condition:
        raise CheckFailed(message)


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude (0 when both are 0)."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# --- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Tail percentiles tried, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value); ``None`` below forty samples, where no such
    percentile is a tail."""
    n = len(values)
    if n < 40:
        return None
    for q in TAILS:
        if n * (1.0 - q / 100.0) >= 10:
            return q, percentile(values, q)
    return None


def describe_timing(name: str, values: Sequence[float], unit: str) -> str:
    """One report line: median, sample count and the supported tail."""
    line = f"  {name}: median {median(values):.4g} {unit}, n={len(values)}"
    t = tail(values)
    if t is not None:
        line += f", p{t[0]:g} {t[1]:.4g} {unit}"
    return line


# --- host speed -------------------------------------------------------------------

#: Seconds one reference burst takes on the reference host; times are
#: reported as they would read there.
NOMINAL_BURST_S = 0.003
#: Bursts taken at each boundary between timed stretches, and the
#: number of bursts nearest in time that give the speed of a stretch.
BOUNDARY_BURSTS = 10
NEAREST_BURSTS = 9


class HostSpeed:
    """Host speed, sampled by timing a fixed piece of pure-Python work
    between the timed stretches of a run.

    The work runs in a separate interpreter (``hostprobe.py``, started
    with ``-I``) that never imports the program, while this process
    waits for its answer.  The speed this benchmark gets on a shared
    host drifts by a fifth or more within seconds; the probe drifts
    with it, but no change to the program or to the state of the
    program's interpreter reaches it.  Every timed stretch is divided
    by the speed factor (median nearby burst / ``NOMINAL_BURST_S``) at
    its midpoint, which removes most of the drift and none of a change
    in the program.  Use as a context manager: leaving it stops the
    probe and waits for it.
    """

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self.probe = subprocess.Popen(
            [sys.executable, "-I",
             os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "hostprobe.py"), WORK],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.probe.poll() is None:
            try:
                self.probe.stdin.close()
            except OSError:
                pass
            try:
                self.probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.probe.kill()
                self.probe.wait()
        self.probe.stdout.close()

    def sample(self, count: int = 1) -> None:
        """Time ``count`` bursts in the probe.  Each is placed at its
        share of the exchange, which the bursts fill almost wholly."""
        start = time.perf_counter()
        self.probe.stdin.write(f"{count}\n")
        self.probe.stdin.flush()
        line = self.probe.stdout.readline()
        end = time.perf_counter()
        took = [float(t) for t in line.split()]
        require(len(took) == count, f"host probe answered {line!r}")
        step = (end - start) / count
        self.at.extend(start + (k + 0.5) * step for k in range(count))
        self.took.extend(took)

    def factor(self, start: float, end: float) -> float:
        """Slowness of the host around [start, end] relative to the
        reference host (> 1 when slower)."""
        mid = 0.5 * (start + end)
        i = bisect.bisect_left(self.at, mid)
        lo, hi = max(0, i - NEAREST_BURSTS), min(len(self.at),
                                                 i + NEAREST_BURSTS)
        nearest = sorted(range(lo, hi), key=lambda j: abs(self.at[j] - mid))
        return median([self.took[j] for j in nearest[:NEAREST_BURSTS]]) \
            / NOMINAL_BURST_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end] would take on the reference host."""
        return (end - start) / self.factor(start, end)

    def median_factor(self) -> float:
        return median(self.took) / NOMINAL_BURST_S


# --- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers,
    written out once when the run ends.

    A span is (id, name, start, end, parent, attributes) with times from
    ``time.perf_counter``; spans of one job share ``attributes["job"]``.
    Disabled tracers record nothing and cost one attribute test.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    @contextmanager
    def _span(self, name: str, parent: Optional[int], attrs):
        with self._lock:
            span = {"id": len(self.spans), "name": name,
                    "start": time.perf_counter(), "end": None,
                    "parent": parent, **attrs}
            self.spans.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()

    def span(self, name: str, parent: Optional[int] = None, **attrs):
        """Context manager timing one call; yields the span (a dict the
        caller may add attributes to), or None when disabled."""
        if not self.enabled:
            return nullcontext(None)
        return self._span(name, parent, attrs)

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


# --- memory ---------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of a process and its direct
    children, MB — a server plus its pool workers."""
    total = 0
    for member in [pid] + _children(pid):
        try:
            total += _vm_hwm_kb(member)
        except OSError:
            pass  # exited between listing and reading
    return total / 1024.0


# --- result ---------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the metric table, then the result as the last stdout
    line."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)


def digest(rows: Iterable[Tuple]) -> str:
    """A short hash of simulated statistics, one row per point."""
    import hashlib

    blob = "\n".join(repr(row) for row in rows)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
