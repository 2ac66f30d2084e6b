"""The asyncio HTTP simulation service (``repro serve``).

One process, three layers:

* an **HTTP front** on ``asyncio.start_server`` — the shared
  :class:`~repro.serve.http.HTTPFront`, whose route table calls this
  app's handlers;
* an **event-loop core** owning all mutable state: the bounded
  priority :class:`~repro.serve.queue.JobQueue`, the single-flight
  dedup index, per-job event logs and the
  :class:`~repro.serve.metrics.ServerMetrics` counters.  Every state
  mutation happens on the loop thread — worker threads talk to it only
  through ``call_soon_threadsafe``;
* a **worker pool** (``ThreadPoolExecutor``, ``--workers`` wide) whose
  threads drive the orchestrator's resilient
  :func:`~repro.exp.orchestrator.run_points` — per-point wall-clock
  caps, crash retries, failure isolation — against the shared on-disk
  :class:`~repro.exp.cache.ResultCache` and one shared warm
  :class:`~repro.exp.pool.WorkerPool` of spawn-once simulation
  processes (so repeat jobs skip process spawn and reuse constructed
  simulation contexts).  Analytic ``estimate`` jobs run inline in the
  thread (they take milliseconds).

Memory stays bounded over a long-lived server: terminal jobs are
evicted ``--job-ttl`` seconds after finishing, per-job event logs keep
only the newest ``--max-job-events`` entries, and the result cache
self-prunes to ``--cache-max-age`` / ``--cache-max-entries`` during the
periodic housekeeping pass.

Endpoints::

    POST   /v2/jobs             submit (202; 200+deduped; 400/429/503)
    POST   /v2/jobs:batch       submit many in one request (200 + per-
                                entry http_status)
    GET    /v2/jobs             all jobs, summaries
    GET    /v2/jobs/<id>        status + result
    GET    /v2/jobs/<id>/events NDJSON progress stream (live until done)
    DELETE /v2/jobs/<id>        cancel (queued: immediate; running:
                                kill-and-respawn the workers holding it)
    GET    /healthz             liveness + drain state
    GET    /metrics             queue/dedup/cache/percentile counters

Every non-2xx response body is the uniform error envelope
``{"error": {"code", "message", "retryable"}}`` so clients branch on a
machine-readable code instead of parsing prose.

Lifecycle: SIGTERM/SIGINT trigger a graceful drain — new submissions
get 503, queued jobs keep dispatching until ``--drain-timeout``, then
in-flight jobs are allowed to finish (each point is already wall-clock
capped), journal entries for anything unfinished survive for the next
server, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.exp.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exp.orchestrator import Progress, RunCancelled, run_points
from repro.exp.pool import WorkerPool
from repro.serve.http import (
    HTTPFront,
    Reply,
    _finite,
    _json_safe,
    error_body,
    send_json,
    send_ndjson_head,
)
from repro.serve.jobs import (
    DEFAULT_JOURNAL_DIR,
    Job,
    JobError,
    JobJournal,
    parse_job,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.queue import JobQueue, QueueFull

#: Fallback ``Retry-After`` seconds when no duration data exists yet.
DEFAULT_RETRY_AFTER = 5

#: Server-side default wall-clock cap per simulation point; payloads
#: may override per job.  Keeps a hung point from wedging a worker (and
#: the drain) forever.
DEFAULT_POINT_TIMEOUT = 300.0

@dataclass
class ServeConfig:
    """Everything ``repro serve`` accepts on the command line."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 2
    queue_limit: int = 64
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR
    journal_dir: str = DEFAULT_JOURNAL_DIR
    drain_timeout: float = 30.0
    point_timeout: Optional[float] = DEFAULT_POINT_TIMEOUT
    retries: int = 0
    processes: int = 1
    quiet: bool = False
    #: Seconds a terminal (done/failed) job stays queryable in memory
    #: before the housekeeping pass evicts it.
    job_ttl: float = 3600.0
    #: Per-job event-log bound: the newest this many events are kept;
    #: older ones are trimmed and counted in ``trimmed_events``.
    max_job_events: int = 1000
    #: Result-cache pruning policy applied by the idle housekeeping
    #: pass: entries older than ``cache_max_age`` seconds and entries
    #: beyond the newest ``cache_max_entries`` are evicted.  ``None``
    #: disables that bound.
    cache_max_age: Optional[float] = None
    cache_max_entries: Optional[int] = None
    #: Seconds between housekeeping passes (TTL eviction + cache prune).
    housekeeping_interval: float = 30.0
    #: Idle simulation workers are reaped after this many seconds
    #: (``None`` keeps the pool at full size forever; a floor of one
    #: warm worker always survives).
    pool_idle_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0, got {self.drain_timeout}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be > 0, got {self.point_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.processes < 1:
            raise ValueError(f"processes must be >= 1, got {self.processes}")
        if self.job_ttl <= 0:
            raise ValueError(f"job_ttl must be > 0, got {self.job_ttl}")
        if self.max_job_events < 2:
            # The bound must at least hold a status event and the
            # terminal "done" event.
            raise ValueError(f"max_job_events must be >= 2, "
                             f"got {self.max_job_events}")
        if self.cache_max_age is not None and self.cache_max_age < 0:
            raise ValueError(f"cache_max_age must be >= 0, "
                             f"got {self.cache_max_age}")
        if self.cache_max_entries is not None and self.cache_max_entries < 0:
            raise ValueError(f"cache_max_entries must be >= 0, "
                             f"got {self.cache_max_entries}")
        if self.housekeeping_interval <= 0:
            raise ValueError(f"housekeeping_interval must be > 0, "
                             f"got {self.housekeeping_interval}")
        if self.pool_idle_timeout is not None and self.pool_idle_timeout <= 0:
            raise ValueError(f"pool_idle_timeout must be > 0, "
                             f"got {self.pool_idle_timeout}")


class ServeApp(HTTPFront):
    """One running simulation service."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.cache = (ResultCache(config.cache_dir)
                      if config.cache_dir else None)
        self.journal = JobJournal(config.journal_dir)
        self.queue = JobQueue(config.queue_limit)
        self.metrics = ServerMetrics()
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        #: Bound port, available once :attr:`ready` is set (``--port 0``
        #: binds an ephemeral port).
        self.port: Optional[int] = None
        self.ready = threading.Event()
        self._active_keys: Dict[str, Job] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._event_waiters: Set[asyncio.Future] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Future] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatch_queued = True
        #: One warm simulation worker pool shared by every job: spawned
        #: once, reused across requests, so repeat fan-outs skip both
        #: process spawn and network construction.  Sized so each serve
        #: worker thread can use its full per-job parallelism.
        self.pool = WorkerPool(config.workers * config.processes,
                               idle_timeout_s=config.pool_idle_timeout)

    # --- lifecycle ----------------------------------------------------------

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(message, flush=True)

    async def serve(self) -> int:
        """Run until drained; returns the process exit code (0)."""
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopped = self._loop.create_future()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-serve")
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._begin_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signal support
        self._recover()
        self._server = await asyncio.start_server(
            self.handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(f"serving on http://{self.config.host}:{self.port} "
                  f"({self.config.workers} workers, queue limit "
                  f"{self.config.queue_limit})")
        self.ready.set()
        dispatcher = self._loop.create_task(self._dispatch_loop())
        housekeeper = self._loop.create_task(self._housekeeping_loop())
        self._wake.set()
        try:
            code = await self._stopped
        finally:
            dispatcher.cancel()
            housekeeper.cancel()
            self._server.close()
            await self._server.wait_closed()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self.pool.close()
        self._log("drain: complete, exiting 0")
        return code

    def request_drain(self) -> None:
        """Thread-safe external drain trigger (what SIGTERM calls)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._begin_drain)
            except RuntimeError:
                pass  # loop already closed

    def _begin_drain(self) -> None:
        if self.draining:
            return
        self.draining = True
        self._log(f"drain: started ({len(self.queue)} queued, "
                  f"{len(self._inflight)} in flight, timeout "
                  f"{self.config.drain_timeout:g}s)")
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        deadline = self._loop.time() + self.config.drain_timeout
        # Phase 1: let queued jobs keep dispatching until the deadline.
        while (self._inflight or self.queue) \
                and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        # Phase 2: stop starting new work; in-flight jobs finish (each
        # point is wall-clock capped, so this terminates).
        self._dispatch_queued = False
        while self._inflight:
            await asyncio.sleep(0.05)
        leftover = len(self.queue)
        if leftover:
            self._log(f"drain: {leftover} queued job(s) left journaled "
                      f"for recovery")
        if not self._stopped.done():
            self._stopped.set_result(0)

    def _recover(self) -> None:
        """Re-enqueue journaled jobs from a previous (killed) server."""
        for entry in self.journal.recover():
            try:
                job = parse_job(entry["payload"], entry["id"])
            except JobError as exc:
                self._log(f"recover: dropping journaled job "
                          f"{entry['id']}: {exc}")
                self.journal.discard(entry["id"])
                continue
            job.submitted_at = entry.get("submitted_at", job.submitted_at)
            self.jobs[job.id] = job
            self._active_keys.setdefault(job.key, job)
            try:
                self.queue.push(job)
            except QueueFull:
                self._log(f"recover: queue full, leaving {job.id} "
                          f"journaled")
                self.jobs.pop(job.id)
                if self._active_keys.get(job.key) is job:
                    self._active_keys.pop(job.key)
                continue
            self.metrics.inc("recovered")
        if self.metrics.counters["recovered"]:
            self._log(f"recover: re-enqueued "
                      f"{self.metrics.counters['recovered']} journaled "
                      f"job(s)")

    # --- housekeeping -------------------------------------------------------

    async def _housekeeping_loop(self) -> None:
        """Periodic idle maintenance: evict expired terminal jobs from
        memory and self-prune the on-disk result cache.

        Runs as its own task so the dispatch loop can keep blocking on
        its wake event; each pass is cheap (a dict scan) with the cache
        prune — file I/O — pushed to the default executor."""
        while True:
            await asyncio.sleep(self.config.housekeeping_interval)
            self.housekeep()
            if self.cache is not None and (
                    self.config.cache_max_age is not None
                    or self.config.cache_max_entries is not None):
                removed = await self._loop.run_in_executor(
                    None, self.cache.prune, self.config.cache_max_age,
                    self.config.cache_max_entries)
                if removed:
                    self.metrics.inc("cache_pruned", removed)
                    self._log(f"housekeeping: pruned {removed} cache "
                              f"entr{'y' if removed == 1 else 'ies'}")

    def housekeep(self, now: Optional[float] = None) -> int:
        """Evict terminal jobs older than ``job_ttl``; returns the
        count evicted.  (Split out from the loop so tests can drive it
        synchronously.)"""
        now = time.time() if now is None else now
        doomed = [job_id for job_id, job in self.jobs.items()
                  if job.terminal and job.finished_at is not None
                  and now - job.finished_at >= self.config.job_ttl]
        for job_id in doomed:
            self.jobs.pop(job_id, None)
        if doomed:
            self.metrics.inc("evicted_jobs", len(doomed))
            self._log(f"housekeeping: evicted {len(doomed)} expired "
                      f"job(s)")
        return len(doomed)

    # --- dispatch and execution ---------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._dispatch_queued \
                    and len(self._inflight) < self.config.workers:
                job = self.queue.pop()
                if job is None:
                    break
                self._start_job(job)

    def _start_job(self, job: Job) -> None:
        job.status = "running"
        job.cancel_event = threading.Event()
        job.started_at = time.time()
        self._publish(job, {"type": "status", "status": "running",
                            "queue_depth": len(self.queue)})
        future = self._loop.run_in_executor(self._pool, self._execute, job)
        self._inflight[job.id] = future
        future.add_done_callback(
            lambda f, job=job: self._job_done(job, f))

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Worker-thread entry: run the job, return its result dict."""
        if job.kind == "estimate":
            from repro.analytic import estimate

            est = estimate(job.estimate["config"], job.estimate["traffic"],
                           job.estimate["rate"], **job.estimate["params"])
            saturation = est.saturation
            return {"estimate": {
                "traffic": est.traffic,
                "rate": est.rate,
                "avg_latency": _finite(est.avg_latency),
                "zero_load_latency": _finite(est.zero_load_latency),
                "avg_hops": est.avg_hops,
                "total_power_w": est.total_power_w,
                "power_breakdown_w": dict(est.power_breakdown_w),
                "throughput_flits_per_cycle":
                    est.throughput_flits_per_cycle,
                "saturation_rate":
                    _finite(saturation.rate) if saturation else None,
                "is_saturated": est.is_saturated,
            }}

        options = job.options
        point_timeout = options.get("point_timeout") \
            or self.config.point_timeout
        retries = options.get("retries")
        processes = options.get("processes") or self.config.processes

        def publish_progress(progress: Progress) -> None:
            event = {"type": "progress", **progress.to_dict()}
            try:
                self._loop.call_soon_threadsafe(self._publish, job, event)
            except RuntimeError:
                pass  # loop shut down mid-job; nobody is listening

        outcomes = run_points(
            job.points,
            processes=processes,
            cache=self.cache,
            on_error="record",
            point_timeout=point_timeout,
            retries=self.config.retries if retries is None else retries,
            progress=publish_progress,
            pool=self.pool,
            cancel_event=job.cancel_event)
        failures = sum(1 for o in outcomes if not o.ok)
        return {
            "num_points": len(outcomes),
            "failures": failures,
            "cache_hits": sum(1 for o in outcomes if o.from_cache),
            "cycles_simulated": sum(o.total_cycles for o in outcomes
                                    if not o.from_cache),
            "points": [o.summary_dict() for o in outcomes],
        }

    def _job_done(self, job: Job, future: asyncio.Future) -> None:
        """Completion bookkeeping; runs on the event loop."""
        self._inflight.pop(job.id, None)
        try:
            job.result = future.result()
            job.status = "done"
            self.metrics.inc("completed")
        except RunCancelled:
            job.status = "cancelled"
            job.error = "cancelled by client"
            self.metrics.inc("cancelled_jobs")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            self.metrics.inc("failed")
        job.finished_at = time.time()
        if job.started_at is not None:
            self.metrics.observe_duration(job.finished_at - job.started_at)
        self.journal.discard(job.id)
        if self._active_keys.get(job.key) is job:
            self._active_keys.pop(job.key)
        self._publish(job, {"type": "done", "status": job.status,
                            "error": job.error,
                            "wall_seconds": job.wall_seconds})
        self._wake.set()

    # --- job intake ---------------------------------------------------------

    def note_invalid_json(self) -> None:
        self.metrics.inc("submitted")
        self.metrics.inc("invalid")

    async def submit(self, payload: Any) -> Reply:
        """Accept/dedup/reject one submission."""
        self.metrics.inc("submitted")
        if self.draining:
            self.metrics.inc("rejected_draining")
            return 503, error_body("draining", "server is draining",
                                   retryable=True), {}
        try:
            job = parse_job(payload, uuid.uuid4().hex[:12])
        except JobError as exc:
            self.metrics.inc("invalid")
            return 400, error_body("invalid_job", str(exc)), {}
        primary = self._active_keys.get(job.key)
        if primary is not None and not primary.terminal:
            # Single-flight: identical work is already queued or running;
            # the caller waits on the primary job and shares its result.
            primary.coalesced += 1
            self.metrics.inc("deduped")
            return 200, {"id": primary.id, "status": primary.status,
                         "key": primary.key, "deduped": True}, {}
        try:
            self.queue.push(job)
        except QueueFull:
            self.metrics.inc("rejected_queue_full")
            return (429, error_body(
                "queue_full",
                f"queue full ({self.config.queue_limit} waiting)",
                retryable=True),
                {"Retry-After": str(self._retry_after())})
        self.jobs[job.id] = job
        self._active_keys[job.key] = job
        self.journal.record(job)
        self.metrics.inc("accepted")
        self._publish(job, {"type": "status", "status": "queued",
                            "queue_depth": len(self.queue)})
        self._wake.set()
        return 202, {"id": job.id, "status": "queued", "key": job.key,
                     "deduped": False,
                     "queue_depth": len(self.queue)}, {}

    async def submit_batch(self, payload: Any) -> Reply:
        """Accept many submissions in one request (``POST
        /v2/jobs:batch``).

        Each entry goes through the exact single-submission path —
        validation, dedup, queue bounds, metrics — and gets its own
        per-entry ``http_status`` in the response, so one bad or bounced
        entry never poisons its neighbours.  The response is 200 as long
        as the batch itself was well-formed."""
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("jobs"), list):
            self.metrics.inc("submitted")
            self.metrics.inc("invalid")
            return 400, error_body("invalid_batch",
                                   "batch payload needs a 'jobs' list"), {}
        results = []
        accepted = deduped = rejected = 0
        retry_after: Dict[str, str] = {}
        for entry in payload["jobs"]:
            status, out, extra = await self.submit(entry)
            if status == 202:
                accepted += 1
            elif status == 200:
                deduped += 1
            else:
                rejected += 1
            retry_after.update(extra)
            results.append({**out, "http_status": status})
        return (200, {"jobs": results, "accepted": accepted,
                      "deduped": deduped, "rejected": rejected},
                retry_after)

    async def cancel(self, job_id: str) -> Reply:
        """Cancel one job (``DELETE /v2/jobs/<id>``).

        Queued jobs cancel immediately (pulled straight out of the
        queue); running jobs cancel cooperatively — the job's cancel
        event trips the worker pool's kill-and-respawn path (the same
        mechanism as ``point_timeout``), and the job turns terminal
        once the executing thread observes :class:`RunCancelled`.
        Cancelling an already-cancelled job is an idempotent success;
        cancelling a done/failed job is a 409."""
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_body("job_not_found",
                                   f"no such job {job_id!r}"), {}
        if job.status == "cancelled":
            return 200, {"id": job.id, "status": "cancelled"}, {}
        if job.terminal:
            return 409, error_body(
                "job_already_finished",
                f"job {job_id} already {job.status}"), {}
        if job.status == "queued":
            self.queue.remove(job.id)
            job.status = "cancelled"
            job.error = "cancelled by client"
            job.finished_at = time.time()
            self.journal.discard(job.id)
            if self._active_keys.get(job.key) is job:
                self._active_keys.pop(job.key)
            self.metrics.inc("cancelled_jobs")
            self._publish(job, {"type": "done", "status": "cancelled",
                                "error": job.error, "wall_seconds": None})
            return 200, {"id": job.id, "status": "cancelled"}, {}
        # Running: flag it and let _job_done finish the bookkeeping.
        if job.cancel_event is not None:
            job.cancel_event.set()
        self._publish(job, {"type": "status", "status": "cancelling"})
        return 202, {"id": job.id, "status": "cancelling"}, {}

    def _retry_after(self) -> int:
        """A Retry-After estimate: how long until a queue slot frees —
        roughly one median job per worker."""
        p50 = self.metrics.percentile(50)
        if p50 is None:
            return DEFAULT_RETRY_AFTER
        estimate = p50 * (len(self.queue) + 1) / self.config.workers
        return max(1, min(60, int(estimate + 0.5)))

    # --- events -------------------------------------------------------------

    def _publish(self, job: Job, event: Dict[str, Any]) -> None:
        event = {"job": job.id, "ts": round(time.time(), 3), **event}
        job.events.append(event)
        trimmed = job.trim_events(self.config.max_job_events)
        if trimmed:
            self.metrics.inc("trimmed_events", trimmed)
        for waiter in self._event_waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _wait_event(self, timeout: float = 1.0) -> None:
        waiter = self._loop.create_future()
        self._event_waiters.add(waiter)
        try:
            await asyncio.wait_for(waiter, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._event_waiters.discard(waiter)

    # --- read-only handlers ------------------------------------------------

    async def get_job(self, job_id: str) -> Reply:
        job = self.jobs.get(job_id)
        if job is None:
            return 404, error_body("job_not_found",
                                   f"no such job {job_id!r}"), {}
        return 200, job.public_dict(), {}

    async def list_jobs(self) -> Reply:
        return 200, {"jobs": [job.public_dict(with_result=False)
                              for job in self.jobs.values()]}, {}

    async def healthz(self) -> Reply:
        return 200, {"status": "draining" if self.draining else "ok",
                     "queue_depth": len(self.queue),
                     "in_flight": len(self._inflight)}, {}

    async def get_metrics(self) -> Reply:
        return 200, self.metrics.snapshot(
            queue_depth=len(self.queue), in_flight=len(self._inflight),
            draining=self.draining, cache=self.cache, pool=self.pool), {}

    async def stream(self, job_id: str,
                     writer: asyncio.StreamWriter) -> None:
        """NDJSON: replay the job's event log, then follow it live
        until the job reaches a terminal status.

        The cursor is an absolute sequence number, so the size bound
        trimming old events under a live follower skips the trimmed
        span instead of replaying or reordering anything."""
        job = self.jobs.get(job_id)
        if job is None:
            await send_json(writer, 404, error_body(
                "job_not_found", f"no such job {job_id!r}"))
            return
        send_ndjson_head(writer)
        sent = 0
        while True:
            sent = max(sent, job.events_base)
            while sent - job.events_base < len(job.events):
                line = json.dumps(
                    _json_safe(job.events[sent - job.events_base]),
                    sort_keys=True) + "\n"
                writer.write(line.encode())
                sent += 1
            await writer.drain()
            if job.terminal and sent - job.events_base >= len(job.events):
                return
            await self._wait_event()


def serve_forever(config: ServeConfig) -> int:
    """Blocking entry point for the CLI: run one server to drain."""
    app = ServeApp(config)
    return asyncio.run(app.serve())
