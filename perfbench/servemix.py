"""The ``serve_mix`` workload: a seeded job mix against one
``repro serve`` process.

The server runs with two workers and fresh cache and journal
directories.  One client process holds two closed-loop connections:
each submits a job, follows its NDJSON event stream until the terminal
event, and only then submits its next job.  Each connection draws from
its own seeded list, in blocks of twenty: ten ``estimate`` jobs, five
new single-point ``run`` jobs, three repeats of runs this connection
has already seen complete (served from the result cache) and two
``experiment`` grids of four new points fanned out over the pool.
Every run and experiment carries a protocol seed of its own, and the
two connections draw estimate rates from disjoint ranges, so no job
ever duplicates one in flight.

After the timed loop the benchmark recomputes every distinct job in
its own process and compares.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analytic import estimate
from repro.core.config import RunProtocol
from repro.exp import (
    ExperimentSpec, RunPoint, TrafficSpec, run_points,
)
from repro.serve import ServeClient

import grid
from common import (
    ROOT, WORK, CheckFailed, Tracer,
    describe_timing, digest, log, median, rel_diff, require,
    tree_peak_rss_mb,
)
from sweeps import build_ms, cache_ms, power_events, sim_layers

WORKERS = 2
CONNECTIONS = 2
#: Server launches timed for ``setup_s``; the last one serves the mix.
SETUP_LAUNCHES = 5
BLOCK = (["estimate"] * 10 + ["run"] * 5 + ["cached"] * 3
         + ["experiment"] * 2)
KINDS = ("estimate", "run", "cached", "experiment")
RUN_PROTOCOL = {"warmup_cycles": 200, "sample_packets": 200}
EXPERIMENT_PROTOCOL = {"warmup_cycles": 200, "sample_packets": 100}
#: Shares of the saturation rate that run and experiment points draw
#: from, and the disjoint estimate-rate ranges of the two connections.
RUN_SHARES = (0.15, 0.5)
ESTIMATE_SHARES = ((0.05, 0.45), (0.45, 0.85))
TRACE_WINDOW = 500
#: Length of one phase of a traced run, which alternates untraced and
#: traced phases.
PHASE_SECONDS = 2.0
ENERGY_REL = 1e-12


def setup(workload: str):
    """The client-side preparation (saturation rates for placing the
    jobs); the server launch is timed separately."""
    table = grid.configs()
    return grid.place_rates(table, [])


# --- the job list -------------------------------------------------------------------


def job_list(seed: int, conn: int, saturation, telemetry: Dict[str, bool]
             ) -> Iterator[Tuple[str, Dict, Optional[int]]]:
    """Endless seeded job list of one connection: (kind, payload,
    index of the repeated job or None).  New simulation jobs record
    telemetry while ``telemetry["on"]`` is set; the list is otherwise
    the same."""
    rng = random.Random(f"serve_mix/{seed}/{conn}")
    labels = list(grid.CONFIG_PAYLOADS)
    issued: List[Dict] = []
    runs: List[int] = []
    counter = 0

    def protocol(base):
        nonlocal counter
        counter += 1
        out = dict(base, seed=seed * 100000 + conn * 10000 + counter)
        if telemetry["on"]:
            out["telemetry_window"] = TRACE_WINDOW
        return out

    picks = dict.fromkeys(("estimate", "run", "experiment"), 0)

    def pick(kind: str, width: int = 1):
        """The next configuration(s) and traffic for ``kind``: every
        kind rotates through all configurations and traffics in a fixed
        order, so each run holds the same mix whatever its seed."""
        n = picks[kind]
        picks[kind] += 1
        first = (n * width + conn) % len(labels)
        chosen = [labels[(first + k) % len(labels)] for k in range(width)]
        traffic = grid.TRAFFICS[(n * width // len(labels))
                                % len(grid.TRAFFICS)]
        sat = min(saturation[(label, traffic.describe())]
                  for label in chosen)
        return chosen, traffic, sat

    block = 0
    while True:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        if block == 0:
            # A repeat needs a completed run of this connection first.
            first_run = kinds.index("run")
            first_cached = kinds.index("cached")
            if first_cached < first_run:
                kinds[first_run], kinds[first_cached] = "cached", "run"
        block += 1
        for kind in kinds:
            repeat = None
            if kind == "estimate":
                (label,), traffic, sat = pick(kind)
                low, high = ESTIMATE_SHARES[conn]
                payload = {"kind": "estimate", "spec": {
                    "config": grid.CONFIG_PAYLOADS[label],
                    "traffic": traffic.to_dict(),
                    "rate": round(sat * rng.uniform(low, high), 6)}}
            elif kind == "run":
                (label,), traffic, sat = pick(kind)
                payload = {"kind": "run", "spec": {
                    "config": grid.CONFIG_PAYLOADS[label],
                    "traffic": traffic.to_dict(),
                    "rate": round(sat * rng.uniform(*RUN_SHARES), 4),
                    "protocol": protocol(RUN_PROTOCOL), "label": label}}
                runs.append(len(issued))
            elif kind == "cached":
                repeat = runs[rng.randrange(len(runs))]
                payload = issued[repeat]
            else:
                pair, traffic, sat = pick(kind, width=2)
                share = rng.uniform(*RUN_SHARES)
                payload = {"kind": "experiment", "spec": {
                    "configs": [[label, grid.CONFIG_PAYLOADS[label]]
                                for label in pair],
                    "traffics": [traffic.to_dict()],
                    "rates": [round(sat * share * 0.5, 4),
                              round(sat * share, 4)],
                    "seeds": [protocol({})["seed"]],
                    "protocol": dict(EXPERIMENT_PROTOCOL, **(
                        {"telemetry_window": TRACE_WINDOW}
                        if telemetry["on"] else {}))},
                    "options": {"processes": WORKERS}}
            issued.append(payload)
            yield kind, payload, repeat


# --- the server ---------------------------------------------------------------------


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, directory: str) -> None:
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS),
             "--cache-dir", os.path.join(directory, "cache"),
             "--journal-dir", os.path.join(directory, "journal")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        while True:
            line = self.proc.stdout.readline()
            if not line:
                self.proc.wait(timeout=30)
                raise CheckFailed(f"server exited at start "
                                  f"(code {self.proc.returncode})")
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                self.url = match.group(1)
                break
        # Keep draining the log so the server never blocks on it.
        self._reader = threading.Thread(target=self._drain_log,
                                        daemon=True)
        self._reader.start()

    def _drain_log(self) -> None:
        for _line in self.proc.stdout:
            pass

    def stop(self) -> int:
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        return code


def wait_job(client: ServeClient, job_id: str) -> Tuple[str, float]:
    """Follow the job's event stream to its terminal event; returns
    (status, wall-clock receipt time)."""
    for event in client.stream(job_id):
        if event.get("type") == "done":
            return event["status"], time.time()
    raise CheckFailed(f"job {job_id}: stream ended without a terminal "
                      f"event")


def warm_up(client: ServeClient) -> None:
    """One experiment over every configuration, so both pool workers
    are spawned and hold built networks before timing."""
    payload = {"kind": "experiment", "spec": {
        "configs": [[label, cfg] for label, cfg
                    in grid.CONFIG_PAYLOADS.items()],
        "traffics": ["uniform"], "rates": [0.01],
        "protocol": {"warmup_cycles": 50, "sample_packets": 20}},
        "options": {"processes": WORKERS}}
    accepted = client.submit(payload)
    status, _ = wait_job(client, accepted["id"])
    require(status == "done", f"warm-up job ended {status}")


def launch(directory: str) -> Tuple[Server, Tuple[float, float]]:
    """Start a server and run the warm-up job; returns the server and
    the (start, end) of its set-up."""
    start = time.perf_counter()
    server = Server(directory)
    try:
        warm_up(ServeClient(server.url, timeout=120))
    except BaseException:
        server.stop()
        raise
    return server, (start, time.perf_counter())


# --- the timed loop -----------------------------------------------------------------


class Record:
    __slots__ = ("conn", "kind", "payload", "repeat", "job_id", "t_submit",
                 "t_done", "received", "status", "deduped", "traced",
                 "state")

    def __init__(self, conn, kind, payload, repeat, traced) -> None:
        self.conn, self.kind, self.payload = conn, kind, payload
        self.repeat, self.traced = repeat, traced
        self.state: Optional[Dict] = None


def drive(url: str, lists, seconds: float, traced: bool,
          tracer: Tracer) -> Tuple[List[List[Record]], Tuple[float, float]]:
    """Run both connections closed-loop until ``seconds`` have passed;
    returns each connection's records and the (start, end) of the
    phase, which ends when the last job in flight ends."""
    records: List[List[Record]] = [[] for _ in lists]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def connection(conn: int) -> None:
        client = ServeClient(url, timeout=120)
        try:
            while time.perf_counter() < deadline:
                kind, payload, repeat = next(lists[conn])
                rec = Record(conn, kind, payload, repeat, traced)
                rec.t_submit = time.perf_counter()
                with tracer.span("serve.submit", kind=kind, conn=conn):
                    accepted = client.submit(payload)
                rec.job_id, rec.deduped = accepted["id"], \
                    accepted["deduped"]
                with tracer.span("serve.wait", kind=kind, conn=conn,
                                 job=rec.job_id):
                    rec.status, rec.received = wait_job(client, rec.job_id)
                rec.t_done = time.perf_counter()
                records[conn].append(rec)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=connection, args=(conn,))
               for conn in range(len(lists))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    return records, (start, end)


# --- checks -------------------------------------------------------------------------


def local_points(rec: Record) -> List[RunPoint]:
    """The run points of a job, built in this process from the same
    configurations the payload names."""
    table = grid.configs()
    spec = rec.payload["spec"]
    if rec.payload["kind"] == "run":
        return [RunPoint(config=table[spec["label"]],
                         traffic=TrafficSpec.from_dict(spec["traffic"]),
                         rate=spec["rate"],
                         protocol=RunProtocol(**spec["protocol"]),
                         label=spec["label"])]
    return ExperimentSpec.of(
        configs={label: table[label] for label, _ in spec["configs"]},
        traffics=[TrafficSpec.from_dict(t) for t in spec["traffics"]],
        rates=spec["rates"], seeds=spec["seeds"],
        protocol=RunProtocol(**spec["protocol"])).points()


def compare_point(name: str, served: Dict, local) -> None:
    require(served["ok"] and served["status"] == "ok",
            f"{name}: served point status {served['status']}")
    require((served["avg_latency"], served["total_cycles"])
            == (local.avg_latency, local.total_cycles),
            f"{name}: served latency/cycles differ from the in-process "
            f"run")
    require(rel_diff(served["total_power_w"], local.total_power_w)
            <= ENERGY_REL, f"{name}: served power differs")
    for comp, watts in local.breakdown_w.items():
        require(rel_diff(served["breakdown_w"][comp], watts)
                <= ENERGY_REL, f"{name}: served {comp} power differs")


def recompute(records: Sequence[Record]):
    """Recompute every distinct job in this process; returns the local
    outcomes of each run/experiment job (by job id) and the direct
    estimate timings (s)."""
    outcomes: Dict[str, List] = {}
    estimate_s = []
    table = grid.configs()
    for rec in records:
        result = rec.state["result"]
        if rec.kind == "estimate":
            spec = rec.payload["spec"]
            traffic = TrafficSpec.from_dict(spec["traffic"])
            start = time.perf_counter()
            est = estimate(table[_label_of(spec["config"])], traffic.name,
                           spec["rate"], **dict(traffic.params))
            estimate_s.append(time.perf_counter() - start)
            served = result["estimate"]
            name = f"estimate {spec}"
            require((served["avg_latency"], served["zero_load_latency"])
                    == (est.avg_latency, est.zero_load_latency),
                    f"{name}: served latency differs")
            require(rel_diff(served["total_power_w"], est.total_power_w)
                    <= ENERGY_REL, f"{name}: served power differs")
            for comp, watts in est.power_breakdown_w.items():
                require(rel_diff(served["power_breakdown_w"][comp], watts)
                        <= ENERGY_REL, f"{name}: served {comp} differs")
        elif rec.kind in ("run", "experiment"):
            points = local_points(rec)
            local = run_points(points, keep_results=True)
            require(len(result["points"]) == len(local),
                    f"job {rec.job_id}: {len(result['points'])} points "
                    f"served, {len(local)} expected")
            for served, mine in zip(result["points"], local):
                require(not served["from_cache"],
                        f"{mine.point.describe()}: a new point was "
                        f"served from the cache")
                compare_point(mine.point.describe(), served, mine)
            outcomes[rec.job_id] = local
    return outcomes, estimate_s


def _label_of(config_payload) -> str:
    for label, payload in grid.CONFIG_PAYLOADS.items():
        if payload == config_payload:
            return label
    raise KeyError(config_payload)


def check_cached(records: Sequence[Record]) -> None:
    by_conn: Dict[int, List[Record]] = {}
    for rec in records:
        by_conn.setdefault(rec.conn, []).append(rec)
    for rec in records:
        if rec.kind != "cached":
            continue
        original = by_conn[rec.conn][rec.repeat]
        require(original.payload is rec.payload
                and original.state["status"] == "done",
                f"job {rec.job_id}: repeat of an unfinished job")
        (hit,) = rec.state["result"]["points"]
        (first,) = original.state["result"]["points"]
        require(hit["from_cache"], f"job {rec.job_id}: repeat was not "
                                   f"served from the cache")
        keys = ("avg_latency", "total_cycles", "total_power_w",
                "breakdown_w", "throughput_flits_per_cycle", "wall_seconds")
        require(all(hit[k] == first[k] for k in keys),
                f"job {rec.job_id}: cache returned other numbers than "
                f"the first run")


# --- workload -----------------------------------------------------------------------


def collect(seed: int, seconds: float, trace: bool, saturation,
            work: str, tracer: Tracer) -> Dict[str, object]:
    """Launch the servers, drive the mix and fetch every job's final
    state; returns what the checks and metrics need."""
    out: Dict[str, object] = {"setup": [], "exit_codes": [], "phases": []}
    server = None
    try:
        for launch_no in range(SETUP_LAUNCHES):
            server, stretch = launch(
                os.path.join(work, f"server{launch_no}"))
            out["setup"].append(stretch)
            if launch_no < SETUP_LAUNCHES - 1:
                out["exit_codes"].append(server.stop())
        telemetry = {"on": False}
        lists = [job_list(seed, conn, saturation, telemetry)
                 for conn in range(CONNECTIONS)]
        records: List[Record] = []
        # Traced runs alternate untraced and traced phases, continuing
        # the same job lists: their difference is the tracing overhead.
        phases = max(2, round(seconds / PHASE_SECONDS)) if trace else 1
        for phase in range(phases):
            traced = trace and phase % 2 == 1
            telemetry["on"] = traced
            done, stretch = drive(server.url, lists, seconds / phases,
                                  traced, tracer if traced else Tracer(False))
            out["phases"].append((stretch, traced))
            records.extend(rec for conn in done for rec in conn)
        out["peak_rss_mb"] = tree_peak_rss_mb(server.proc.pid)
        client = ServeClient(server.url, timeout=120)
        for rec in records:
            with tracer.span("serve.status", job=rec.job_id):
                rec.state = client.status(rec.job_id)
        out["server_metrics"] = client.metrics()
        out["exit_codes"].append(server.stop())
        server = None
        out["records"] = records
    finally:
        if server is not None:
            server.stop()
    return out


def check(data: Dict[str, object]):
    """Every output check of the mix; returns the in-process outcomes
    and direct estimate timings the per-layer figures reuse."""
    records: List[Record] = data["records"]
    codes = data["exit_codes"]
    require(all(code == 0 for code in codes),
            f"server exit codes after SIGTERM: {codes}")
    require(all(rec.status == "done" and rec.state["status"] == "done"
                for rec in records), "a job did not end done")
    require(not any(rec.deduped for rec in records),
            "a submission was deduplicated onto a job in flight")
    metrics = data["server_metrics"]
    n_cached = sum(1 for rec in records if rec.kind == "cached")
    require(metrics["cache_hits"] == n_cached,
            f"server counted {metrics['cache_hits']} cache hits for "
            f"{n_cached} cached jobs")
    require(metrics["deduped"] == 0, "server deduplicated jobs")
    require(metrics["pool_respawns"] == 0, "pool workers were respawned")
    check_cached(records)
    return recompute(records)


def run(workload: str, seed: int, seconds: float, trace: bool):
    saturation = setup(workload)
    tracer = Tracer(trace)
    work = os.path.join(WORK, f"serve-{os.getpid()}")
    try:
        data = collect(seed, seconds, trace, saturation, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records: List[Record] = data["records"]
    try:
        local, estimate_s = check(data)
        correct = True
    except CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        correct, local, estimate_s = False, None, None
    failed = sum(1 for rec in records if rec.state["status"] != "done")

    def rate(traced: bool):
        """Jobs and fresh simulated cycles per second of the phases
        traced or not."""
        recs = [rec for rec in records if rec.traced == traced]
        cycles = sum(p["total_cycles"] for rec in recs
                     if rec.kind in ("run", "experiment")
                     and rec.state["status"] == "done"
                     for p in rec.state["result"]["points"])
        wall = sum(end - start for (start, end), flag in data["phases"]
                   if flag == traced)
        return len(recs) / wall, cycles / wall

    jobs_per_s, cycles_per_s = rate(trace)
    by_kind = {kind: [1e3 * (rec.t_done - rec.t_submit) for rec in records
                      if rec.traced == trace and rec.kind == kind]
               for kind in KINDS}
    metrics = {
        "sim_cycles_per_s": (cycles_per_s, "cycles/s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "setup_s": (median([end - start for start, end in data["setup"]]),
                    "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }
    for kind in KINDS:
        metrics[f"{kind}_ms_p50"] = (median(by_kind[kind]), "ms")
    print(f"serve_mix seed {seed}: {len(records)} jobs attempted over "
          f"{CONNECTIONS} closed-loop connections, {failed} failed")
    for kind in KINDS:
        print(describe_timing(kind, by_kind[kind], "ms"))
    if not trace or not correct:
        return correct, len(records), failed, metrics, {}
    layers, extra = per_layer(records, local, estimate_s,
                              data["server_metrics"], tracer)
    extra["trace.overhead_pct"] = (
        100.0 * (rate(False)[0] / jobs_per_s - 1.0), "%")
    tracer.write(os.path.join(WORK, "traces", f"serve_mix-seed{seed}.json"))
    return correct, len(records), failed, layers, extra


def per_layer(records: Sequence[Record], by_job, estimate_s,
              server_metrics, tracer: Tracer):
    traced = [rec for rec in records if rec.traced]
    local = [o for rec in traced for o in by_job.get(rec.job_id, ())]
    fresh = [p for rec in traced if rec.kind in ("run", "experiment")
             for p in rec.state["result"]["points"]]
    table = grid.configs()
    store_ms, load_ms = cache_ms(local)
    layers = {
        "sim.cycles": (sum(p["total_cycles"] for p in fresh), "count"),
        "sim.flits": (sum(o.result.flits_ejected for o in local), "count"),
        "power.events": (sum(power_events(o) for o in local), "count"),
        **sim_layers([(p["label"], p["wall_seconds"], p["total_cycles"],
                       p["telemetry"]["spans_s"]) for p in fresh], table),
        "core.build_ms": (build_ms(table), "ms"),
        "analytic.estimate_ms": (1e3 * median(estimate_s), "ms"),
        "exp.cache_store_ms": (store_ms, "ms"),
        "exp.cache_load_ms": (load_ms, "ms"),
    }

    def ms(values):
        return (1e3 * median(values) if values else float("nan"), "ms")

    extra = {
        "serve.submit_ms": ms(tracer.durations("serve.submit")),
        "serve.status_ms": ms(tracer.durations("serve.status")),
        "serve.notify_ms": ms([rec.received - rec.state["finished_at"]
                               for rec in traced]),
        "serve.queue_wait_ms": ms([rec.state["started_at"]
                                   - rec.state["submitted_at"]
                                   for rec in traced]),
    }
    for kind in KINDS:
        extra[f"serve.exec_ms.{kind}"] = ms(
            [rec.state["wall_seconds"] for rec in traced
             if rec.kind == kind])
    # Server execution beyond the workers' point compute; an
    # experiment's points run on WORKERS workers at once, so its compute
    # counts once per worker.
    for kind, lanes in (("run", 1), ("experiment", WORKERS)):
        extra[f"exp.pool_overhead_ms.{kind}"] = ms(
            [rec.state["wall_seconds"]
             - sum(p["wall_seconds"] for p in rec.state["result"]["points"])
             / lanes
             for rec in traced if rec.kind == kind])
    points = sum(len(rec.state["result"].get("points", ()))
                 for rec in records if rec.kind != "estimate")
    extra.update({
        "serve.cache_hits": (server_metrics["cache_hits"], "count"),
        "serve.deduped": (server_metrics["deduped"], "count"),
        "pool.tasks_completed": (server_metrics["pool_tasks_completed"],
                                 "count"),
        "pool.respawns": (server_metrics["pool_respawns"], "count"),
        "exp.cache_hit_ratio": (server_metrics["cache_hits"] / points,
                                "ratio"),
    })
    print("point digest: " + digest(
        (o.point.describe(), o.avg_latency, o.result.total_cycles,
         o.result.flits_ejected) for o in local))
    return layers, extra
