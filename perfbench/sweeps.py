"""The two sweep workloads: a Figure 5/7-style design-space sweep run
serially in one process through ``repro.exp.run_points``.

One round places the grid's rates from ``repro.analytic.estimate``,
simulates every point fresh (no result cache), then re-runs the same
grid from a result cache filled with those outcomes.  Rounds repeat
until the measured time reaches ``--seconds``; every round runs the
same points, so the outputs of later rounds must equal the first.

``sweep_average`` charges energy through average activity (the integer
counter binding); ``sweep_data`` runs the same grid with
``activity_mode="data"``, where every flit event deposits a
payload-dependent energy.  Timing is identical between the two.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.analytic import zero_load_latency
from repro.core.config import RunProtocol
from repro.core.events import EVENT_TYPES
from repro.exp import PointOutcome, ResultCache, RunPoint, run_points
from repro.sim.engine import SimulationContext
from repro.sim.topology import topology_for

import grid
from common import (
    BOUNDARY_BURSTS, ROOT, WORK, CheckFailed, HostSpeed, Tracer,
    describe_timing, digest, log, median, own_peak_rss_mb, rel_diff,
    require,
)

#: Telemetry window of traced rounds: the engine records its phase
#: spans only when telemetry is on.
TRACE_WINDOW = 500
#: Child processes timed for ``setup_s``.
SETUP_REPEATS = 5
#: Energy agreement required by the dense-kernel reference.
ENERGY_REL = 1e-12
#: Data-mode components must match average mode within
#: ``DATA_TOL_K / sqrt(measured flits)``.  Random payloads toggle half
#: their bits on average; one B-bit word's toggle count has a relative
#: spread of 1/sqrt(B) (0.18 for 32-bit flits), so over N flits the
#: component energy spreads by about 0.18/sqrt(N): 2/sqrt(N) is over
#: ten of those.
DATA_TOL_K = 2.0
#: Configurations whose links are chip-to-chip, and the load-invariant
#: power of one such link (§4.4: 192 W over the 64 channels of the 4x4
#: torus).
CHIP_TO_CHIP_LABELS = ("CB", "XB")
CHIP_TO_CHIP_LINK_W = 3.0
#: The one data-mode mismatch counted as a failed operation rather
#: than a wrong result: the central buffer of the central-buffer
#: router, whose data-mode write energy is known to be wrong
#: (``CentralBufferPower.write_energy`` models 128-bit rows fed 32-bit
#: flits).  Any other mismatch fails the check.
KNOWN_DATA_FAULT = ("central", "central_buffer")


def setup(workload: str):
    """Everything before the first timed operation: the program is
    imported (by loading this module) and the configuration table is
    built."""
    table = grid.configs()
    if workload == "sweep_data":
        table = grid.with_activity(table, "data")
    return table


def measure_setup(workload: str, seed: int,
                  speed: HostSpeed) -> List[Tuple[float, float]]:
    """(start, end) of ``SETUP_REPEATS`` launches of a fresh interpreter
    that sets up this workload and says ``ready``, with host-speed
    samples around each."""
    out = []
    for _ in range(SETUP_REPEATS):
        speed.sample(BOUNDARY_BURSTS)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            out.append((start, time.perf_counter()))
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        require(code == 0 and line.strip() == "ready",
                f"setup probe failed (exit {code}, said {line!r})")
    speed.sample(BOUNDARY_BURSTS)
    return out


# --- one round --------------------------------------------------------------------


class Round:
    """Timed stretches and outcomes of one grid round; every stretch is
    a (start, end) pair of ``perf_counter`` times."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.estimates: List[Tuple[float, float]] = []
        self.points: List[Tuple[float, float]] = []
        self.cached_points: List[Tuple[float, float]] = []
        self.outcomes: List[PointOutcome] = []
        self.cached: List[PointOutcome] = []
        self.measured_s = 0.0

    @property
    def cycles(self) -> int:
        return sum(o.total_cycles for o in self.outcomes)


class Marks:
    """Progress hook recording when each point finished.  It samples
    the host between points, outside the recorded stretches: one burst
    per stretch gives every stretch, however short, a speed of its own
    time, so the medians of short calls do not hang on a few samples."""

    def __init__(self, start: float, speed: HostSpeed) -> None:
        self.last = start
        self.speed = speed
        self.stretches: List[Tuple[float, float]] = []

    def __call__(self, _progress) -> None:
        now = time.perf_counter()
        self.stretches.append((self.last, now))
        self.speed.sample()
        self.last = time.perf_counter()


def run_round(table, seed: int, protocol: RunProtocol, cache: ResultCache,
              stored: set, tracer: Tracer, speed: HostSpeed,
              traced: bool) -> Round:
    rnd = Round(traced)
    speed.sample(BOUNDARY_BURSTS)
    with tracer.span("analytic.place_rates") as parent:
        saturation = grid.place_rates(table, rnd.estimates, speed.sample)
        points = grid.grid_points(table, saturation, seed, protocol)
    with tracer.span("exp.run_points", fresh=True):
        start = time.perf_counter()
        marks = Marks(start, speed)
        rnd.outcomes = run_points(points, keep_results=True,
                                  progress=marks)
    rnd.points = marks.stretches
    if protocol not in stored:
        # Untimed: fill the cache the re-run reads from.
        for point, outcome in zip(points, rnd.outcomes):
            cache.store(point.cache_key(), replace(outcome, result=None))
        stored.add(protocol)
    with tracer.span("exp.run_points", fresh=False):
        marks = Marks(time.perf_counter(), speed)
        rnd.cached = run_points(points, cache=cache, progress=marks)
    rnd.cached_points = marks.stretches
    speed.sample(BOUNDARY_BURSTS)
    rnd.measured_s = sum(end - start for start, end in
                         rnd.estimates + rnd.points + rnd.cached_points)
    if parent is not None:
        parent["estimates"] = len(rnd.estimates)
    return rnd


def point_row(outcome: PointOutcome) -> Tuple:
    """The simulated statistics a speed-only change must leave equal."""
    r = outcome.result
    return (outcome.point.describe(), outcome.avg_latency, r.total_cycles,
            r.flits_ejected, outcome.total_power_w)


def power_events(outcome: PointOutcome) -> int:
    accountant = outcome.result.accountant
    return sum(accountant.event_count(event) for event in EVENT_TYPES)


# --- checks -----------------------------------------------------------------------


def sample_mean_hops(point: RunPoint) -> float:
    """Mean hop count of the packets in the point's measured sample,
    replayed from the traffic generator (which does not depend on the
    network's state): the first ``sample_packets`` packets created at
    or after the warm-up."""
    topo = topology_for(point.config)
    traffic = point.traffic.build(topo, point.rate, point.protocol.seed)
    want = point.protocol.sample_packets
    hops, cycle = [], 0
    while len(hops) < want:
        for src, dst in traffic.packets_at(cycle):
            if cycle >= point.protocol.warmup_cycles and len(hops) < want:
                hops.append(topo.manhattan_distance(src, dst))
        cycle += 1
    return sum(hops) / len(hops)


def check_points(outcomes: Sequence[PointOutcome]) -> None:
    """Per-point properties every correct run has."""
    for o in outcomes:
        p, r = o.point, o.result
        name = p.describe()
        require(o.ok and o.status == "ok", f"{name}: status {o.status}")
        require(r.sample_packets == p.protocol.sample_packets
                and r.latency.count == p.protocol.sample_packets
                and r.sample_dropped == 0,
                f"{name}: delivered {r.latency.count} of "
                f"{p.protocol.sample_packets} sample packets")
        floor = zero_load_latency(p.config, sample_mean_hops(p))
        require(o.avg_latency >= floor - 1e-9,
                f"{name}: latency {o.avg_latency:.3f} below the zero-load "
                f"latency {floor:.3f} of its sample")
        parts = sum(o.breakdown_w.values())
        require(rel_diff(parts, o.total_power_w) <= 1e-12,
                f"{name}: breakdown sums to {parts!r}, total "
                f"{o.total_power_w!r}")
        if p.label in CHIP_TO_CHIP_LABELS:
            links = sum(1 for _ in topology_for(p.config).channels())
            expected = links * CHIP_TO_CHIP_LINK_W
            require(rel_diff(o.breakdown_w["link"], expected) <= 1e-12,
                    f"{name}: link power {o.breakdown_w['link']!r} W, "
                    f"expected {expected} W")


def check_rounds_equal(first: Round, later: Round) -> None:
    require([point_row(o) for o in first.outcomes]
            == [point_row(o) for o in later.outcomes],
            "a repeated round simulated different statistics")


def check_cached(rnd: Round) -> None:
    for fresh, hit in zip(rnd.outcomes, rnd.cached):
        name = fresh.point.describe()
        require(hit.from_cache, f"{name}: cached re-run missed the cache")
        require((hit.avg_latency, hit.total_cycles, hit.total_power_w,
                 hit.breakdown_w, hit.throughput_flits_per_cycle)
                == (fresh.avg_latency, fresh.total_cycles,
                    fresh.total_power_w, fresh.breakdown_w,
                    fresh.throughput_flits_per_cycle),
                f"{name}: cache returned different numbers")


def dense_choice(points: Sequence[RunPoint], seed: int) -> List[int]:
    """One point per configuration label (so every router kind),
    rotating through each label's points with the seed."""
    by_label: Dict[str, List[int]] = {}
    for index, point in enumerate(points):
        by_label.setdefault(point.label, []).append(index)
    return [indices[(seed + k) % len(indices)]
            for k, indices in enumerate(by_label.values())]


def check_dense(outcomes: Sequence[PointOutcome], seed: int) -> None:
    """Re-run chosen points on the dense reference kernel."""
    chosen = dense_choice([o.point for o in outcomes], seed)
    dense_points = [replace(outcomes[i].point,
                            protocol=outcomes[i].point.protocol.with_(
                                kernel="dense"))
                    for i in chosen]
    dense = run_points(dense_points, keep_results=True)
    for i, ref in zip(chosen, dense):
        o = outcomes[i]
        name = o.point.describe()
        require((ref.avg_latency, ref.result.total_cycles,
                 ref.result.flits_ejected)
                == (o.avg_latency, o.result.total_cycles,
                    o.result.flits_ejected),
                f"{name}: dense kernel disagrees on latency/cycles/flits")
        require(rel_diff(ref.result.total_energy_j,
                         o.result.total_energy_j) <= ENERGY_REL,
                f"{name}: dense kernel energy differs")
        for comp, watts in o.breakdown_w.items():
            require(rel_diff(ref.breakdown_w[comp], watts) <= ENERGY_REL,
                    f"{name}: dense kernel {comp} power differs")


def data_tolerance(flits: int) -> float:
    return DATA_TOL_K / math.sqrt(flits)


def check_data_mode(outcomes: Sequence[PointOutcome],
                    twins: Sequence[PointOutcome]) -> List[str]:
    """Compare data-mode points with their average-mode twins; returns
    the failure notes of points whose power disagrees only through
    ``KNOWN_DATA_FAULT`` (counted as failed operations).  Timing must
    agree exactly on every point, and every other component's power
    within the tolerance."""
    failures = []
    for o, a in zip(outcomes, twins):
        name = o.point.describe()
        require((o.avg_latency, o.result.total_cycles,
                 o.result.flits_ejected)
                == (a.avg_latency, a.result.total_cycles,
                    a.result.flits_ejected),
                f"{name}: data mode changed latency/cycles/flits")
        require(power_events(o) == power_events(a),
                f"{name}: data mode changed the energy event count")
        tol = data_tolerance(o.result.measured_flits_ejected)
        bad = []
        for comp, watts in a.breakdown_w.items():
            got = o.breakdown_w[comp]
            if watts:
                off = (got - watts) / watts
            else:  # a component this router does not have
                off = 0.0 if got == 0 else math.inf
            if abs(off) <= tol:
                continue
            note = f"{comp} {off:+.1%} beyond {tol:.1%}"
            require((o.point.config.router.kind, comp) == KNOWN_DATA_FAULT,
                    f"{name}: data-mode power off average mode: {note}")
            bad.append(note)
        if bad:
            failures.append(f"{name}: data-mode power off average mode: "
                            f"{', '.join(bad)}")
    return failures


# --- workload ---------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool):
    with HostSpeed() as speed:
        return measure(workload, seed, seconds, trace, speed)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            speed: HostSpeed):
    setup_runs = measure_setup(workload, seed, speed)
    table = setup(workload)
    tracer = Tracer(trace)
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cache = ResultCache(os.path.join(work, "cache"))
    base = RunProtocol()
    traced_protocol = base.with_(telemetry_window=TRACE_WINDOW)
    stored: set = set()
    rounds: List[Round] = []
    measured = 0.0
    correct, failures, twins = True, [], None
    try:
        # Traced runs alternate traced and untraced rounds, so the two
        # can be compared for the tracing overhead.
        while measured < seconds or (trace and len(rounds) < 2):
            traced = trace and len(rounds) % 2 == 0
            rnd = run_round(table, seed,
                            traced_protocol if traced else base,
                            cache, stored, tracer, speed, traced)
            measured += rnd.measured_s
            rounds.append(rnd)
            check_cached(rnd)
            if len(rounds) > 1:
                check_rounds_equal(rounds[0], rnd)
                # Later rounds keep timings and telemetry, not results.
                rnd.outcomes = [replace(o, result=None)
                                for o in rnd.outcomes]
        speed.sample(BOUNDARY_BURSTS)
        peak_rss = own_peak_rss_mb()
        first = rounds[0]
        check_points(first.outcomes)
        check_dense(first.outcomes, seed)
        if workload == "sweep_data":
            twin_points = [replace(o.point, config=o.point.config.with_(
                activity_mode="average")) for o in first.outcomes]
            twins = run_points(twin_points, keep_results=True)
            failures = check_data_mode(first.outcomes, twins)
            for note in failures:
                log("FAILED " + note)
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        correct, failures, twins = False, [], None
        peak_rss = own_peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n_points = len(rounds[0].outcomes)
    attempted = n_points * len(rounds)
    failed = len(failures) * len(rounds)

    untraced = [r for r in rounds if not r.traced] or rounds

    def scaled(stretches):
        return [speed.scaled(a, b) for a, b in stretches]

    grids = [sum(scaled(r.points)) for r in untraced]
    samples = {
        "estimate": [t for r in untraced for t in scaled(r.estimates)],
        "run": [t for r in untraced for t in scaled(r.points)],
        "cached": [t for r in untraced for t in scaled(r.cached_points)],
        "experiment": grids,
    }
    metrics = {
        "sim_cycles_per_s": (median([r.cycles / g for r, g
                                     in zip(untraced, grids)]), "cycles/s"),
        "jobs_per_s": (median([n_points / g for g in grids]), "1/s"),
        "setup_s": (median(scaled(setup_runs)), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    for kind, values in samples.items():
        metrics[f"{kind}_ms_p50"] = (1e3 * median(values), "ms")
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {n_points} "
          f"points, {measured:.2f} s measured, {attempted} attempted, "
          f"{failed} failed; host speed factor "
          f"{speed.median_factor():.3f} (times below are scaled by it)")
    raw_cps = median([r.cycles / sum(b - a for a, b in r.points)
                      for r in untraced])
    print(f"  unscaled sim_cycles_per_s {raw_cps:.6g}")
    for kind, values in samples.items():
        print(describe_timing(kind, [1e3 * v for v in values], "ms"))
    if not trace or not correct:
        return correct, attempted, failed, metrics, {}
    layers, extra = per_layer(rounds, table, twins, speed)
    tracer.write(os.path.join(WORK, "traces",
                              f"{workload}-seed{seed}.json"))
    return correct, attempted, failed, layers, extra


def build_ms(table) -> float:
    """Mean over configurations of the median of three direct
    ``SimulationContext`` constructions, ms."""
    per_config = []
    for config in table.values():
        times = []
        for _ in range(3):
            start = time.perf_counter()
            SimulationContext(config, RunProtocol())
            times.append(time.perf_counter() - start)
        per_config.append(median(times))
    return 1e3 * sum(per_config) / len(per_config)


def cache_ms(outcomes: Sequence[PointOutcome]) -> Tuple[float, float]:
    """Median direct ``ResultCache.store`` and ``ResultCache.load`` of
    the outcomes' keys in a scratch cache, ms."""
    scratch = ResultCache(os.path.join(WORK, f"scratch-{os.getpid()}"))
    keys = [outcome.point.cache_key() for outcome in outcomes]
    store, load = [], []
    try:
        for key, outcome in zip(keys, outcomes):
            start = time.perf_counter()
            scratch.store(key, replace(outcome, result=None))
            store.append(time.perf_counter() - start)
        for key in keys:
            start = time.perf_counter()
            require(scratch.load(key) is not None, "scratch cache missed")
            load.append(time.perf_counter() - start)
    finally:
        shutil.rmtree(scratch.root, ignore_errors=True)
    return 1e3 * median(store), 1e3 * median(load)


#: Buckets of ``sim.us_per_cycle.<bucket>``, see ``grid.layer_of``.
SIM_BUCKETS = ("wormhole", "vc", "speculative_vc", "central", "mesh8x8")


def sim_layers(rows, table, rounds: int = 1):
    """Host time per simulated cycle, overall and per bucket, and the
    engine's phase spans (summed, divided by ``rounds``) of (label,
    wall seconds, cycles, spans) rows, one per point."""
    wall: Dict[str, float] = dict.fromkeys(SIM_BUCKETS, 0.0)
    cycles: Dict[str, int] = dict.fromkeys(SIM_BUCKETS, 0)
    spans = dict.fromkeys(("inject", "router_step", "observe",
                           "finalize"), 0.0)
    for label, seconds, n, point_spans in rows:
        bucket = grid.layer_of(label, table[label])
        wall[bucket] += seconds
        cycles[bucket] += n
        for name, value in point_spans.items():
            spans[name] += value
    out = {"sim.us_per_cycle": (1e6 * sum(wall.values())
                                / sum(cycles.values()), "us")}
    for bucket in SIM_BUCKETS:
        out[f"sim.us_per_cycle.{bucket}"] = (
            1e6 * wall[bucket] / cycles[bucket] if cycles[bucket]
            else math.nan, "us")
    out.update({
        "sim.router_step_s": (spans["router_step"] / rounds, "s"),
        "sim.inject_s": (spans["inject"] / rounds, "s"),
        "sim.observe_s": (spans["observe"] / rounds, "s"),
        "power.finalize_s": (spans["finalize"] / rounds, "s"),
    })
    return out


def per_layer(rounds: Sequence[Round], table, twins, speed: HostSpeed):
    """Per-layer metrics from the traced rounds, plus the table-only
    figures of this workload."""
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    first = rounds[0]
    events = sum(power_events(o) for o in first.outcomes)
    store_ms, load_ms = cache_ms(first.outcomes)
    layers = {
        "sim.cycles": (first.cycles, "count"),
        "sim.flits": (sum(o.result.flits_ejected for o in first.outcomes),
                      "count"),
        "power.events": (events, "count"),
        **sim_layers([(o.point.label, o.wall_seconds, o.total_cycles,
                       o.telemetry.spans_s)
                      for r in traced for o in r.outcomes],
                     table, rounds=len(traced)),
        "core.build_ms": (build_ms(table), "ms"),
        "analytic.estimate_ms": (1e3 * median(
            [b - a for r in traced for a, b in r.estimates]), "ms"),
        "exp.cache_store_ms": (store_ms, "ms"),
        "exp.cache_load_ms": (load_ms, "ms"),
    }
    cps = {flag: median([r.cycles / sum(speed.scaled(a, b)
                                        for a, b in r.points)
                         for r in group])
           for flag, group in (("traced", traced),
                               ("untraced", untraced))}
    extra = {
        "exp.orchestrator_ms": (1e3 * median(
            [sum(b - a for a, b in r.points)
             - sum(o.wall_seconds for o in r.outcomes)
             for r in traced]), "ms"),
        "trace.overhead_pct": (
            100.0 * (cps["untraced"] / cps["traced"] - 1.0), "%"),
    }
    if twins is not None:
        extra["power.data_ns_per_event"] = (
            1e9 * (sum(o.wall_seconds for o in first.outcomes)
                   - sum(t.wall_seconds for t in twins)) / events, "ns")
    print(f"point digest: {digest(point_row(o) for o in first.outcomes)}")
    return layers, extra
