"""The campaign service: an asyncio HTTP façade over sharded workers.

One :class:`CampaignService` process owns the control plane — job
admission, the fair-share chunk queue, leases, the single-flight table,
per-job streaming and fleet telemetry — and executes chunks on two
kinds of data plane simultaneously:

* a **local process pool** (``workers`` > 0), fed by the dispatcher
  loop;
* **remote workers** on any host that can reach the HTTP port and see
  the spec file, pulling chunks via ``POST /v1/workers/lease``
  (pull-based work stealing: a faster host simply leases more often)
  and returning outcomes via ``POST /v1/workers/complete``.  A leased
  chunk that is not completed within ``lease_timeout`` seconds is
  re-queued by the reaper — a crashed worker loses its lease, never
  the work.

Endpoints (all JSON; one request per connection):

====== =============================== =================================
Method Path                            Purpose
====== =============================== =================================
GET    /v1/healthz                     liveness + version
POST   /v1/jobs                        submit (422 verifier-rejected,
                                       429 queue full)
GET    /v1/jobs                        list jobs (``?tenant=`` filter)
GET    /v1/jobs/{id}                   status + progress counters
POST   /v1/jobs/{id}/cancel            cancel (idempotent)
GET    /v1/jobs/{id}/stream            per-point records as JSONL
                                       (``?sse=1`` for SSE framing)
GET    /v1/jobs/{id}/results           aggregates + fingerprint
GET    /v1/jobs/{id}/telemetry         merged per-point engine telemetry
GET    /v1/jobs/{id}/trace             stitched Perfetto trace (fleet
                                       spans from every executor)
GET    /v1/tenants/{id}/usage          per-tenant SLO accounting
GET    /v1/metrics                     service metrics registry dump
GET    /metrics                        Prometheus text exposition
                                       (fleet-merged; unversioned per
                                       Prometheus convention)
POST   /v1/workers/lease               pull one chunk (204 when idle)
POST   /v1/workers/complete            return chunk outcomes
                                       (+ optional telemetry segment)
====== =============================== =================================

Per-campaign execution rules are not the service's own: each job holds
a :class:`~repro.campaign.core.CampaignExecution`, the same core the
in-process :class:`~repro.campaign.runner.CampaignRunner` drives.  It
plans the points and their cache keys, pre-flights the job's first
point at admission (a rejection is the 422), settles every outcome
(retry or final) and leaves a failed point's artifacts under
``out_dir/jobs/<id>/failures/`` — the runner's ``out_dir/failures/``
path scheme.  Completions are accepted only for the tasks of the chunk
that was dispatched; anything else a worker returns is ignored.

Fleet observability (``observe="on"``, the default): each admitted job
mints a W3C-``traceparent``-style trace context; every chunk dispatch
derives a child context carried to executors through the lease payload
and the fork/pickle boundary.  Given that context,
:func:`~repro.service.jobs.execute_chunk_by_ref` ships a
size-capped telemetry segment (spans + metrics + wall-clock epoch)
back with their outcomes; the server adds its own queue-wait / lease
spans and cache-hit instants and stitches everything into one
Perfetto-loadable trace per job.  Worker metric registries are merged
(counter sum, gauge last-write, histogram bucket-merge) into the
cluster view behind ``GET /metrics``.

Determinism contract: seeds are planned once, server-side, into each
point's params; identical points (same campaign name, params incl.
seed, code version, verifier ruleset) are computed **once** fleet-wide
— concurrent duplicates join the in-flight point as followers, later
duplicates hit the shared store — and every job's aggregate is
bit-identical to a serial :class:`~repro.campaign.runner.CampaignRunner`
execution of the same campaign.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__ as _VERSION
from ..campaign.core import CampaignExecution, RunTask, _fork_context
from ..campaign.loader import SpecError, resolve_spec_ref, split_spec_ref
from ..campaign.records import CampaignResults, JsonlAppender, RunRecord
from ..campaign.spec import Campaign, FixedPoints
from ..observe import MetricsRegistry
from ..observe.fleet import (
    DEFAULT_SEGMENT_SPANS,
    MetricsAggregator,
    TraceContext,
    coerce_segment,
    prometheus_text,
    split_metric_key,
    stitch_job_trace,
)
from ..observe.metrics import LATENCY_BOUNDS
from ..observe.tracer import INSTANT, SPAN
from .http import (
    HttpError,
    Request,
    Response,
    Router,
    StreamingResponse,
    start_http_server,
)
from .jobs import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    Chunk,
    Job,
    JobRequest,
    SubmitError,
    execute_chunk_by_ref,
)
from .queue import FairShareQueue

logger = logging.getLogger(__name__)

#: How long a remote worker may sit on a leased chunk before the
#: reaper takes it back.
DEFAULT_LEASE_TIMEOUT = 60.0

#: Poll cadence for results claimed by *another* service process
#: sharing the store.
EXTERNAL_POLL_SECONDS = 0.2

#: Segments retained per job for trace stitching; beyond it incoming
#: segments are dropped (and counted) — one pathological job cannot
#: hold the server's memory hostage.
MAX_JOB_SEGMENTS = 512


def _pool_warmup() -> None:
    """No-op task whose submission forces the pool to spawn all of its
    worker processes (module-level so it pickles)."""
    return None


class CampaignService:
    """See the module docstring.  Construct, then :meth:`run` (blocking)
    or :func:`start_in_thread` (embedded)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8321,
                 workers: int = 1, out_dir=None, store_dir=None,
                 max_pending_points: Optional[int] = 100_000,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 tenant_weights: Optional[Dict[str, float]] = None,
                 fsync: bool = False, verify: str = "auto",
                 metrics: Optional[MetricsRegistry] = None,
                 observe: str = "on"):
        self.host = host
        self.port = port
        self.workers = max(0, int(workers))
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.lease_timeout = float(lease_timeout)
        if verify not in ("auto", "on", "off"):
            raise ValueError("verify must be 'auto', 'on' or 'off'")
        self.verify = verify
        if observe not in ("on", "off"):
            raise ValueError("observe must be 'on' or 'off'")
        #: fleet observability master switch: trace contexts, stitched
        #: job traces and worker telemetry collection (per-job opt-out
        #: via the submit payload's ``observe: false``)
        self.observe = observe == "on"
        #: merged view of every worker telemetry segment's metrics;
        #: ``GET /metrics`` composes it with the live registry
        self.fleet = MetricsAggregator()
        self.owner = f"svc-{os.getpid()}-{uuid.uuid4().hex[:8]}"

        from .store import SharedResultStore
        self.store = (SharedResultStore(store_dir, fsync=fsync)
                      if store_dir is not None else None)
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.queue = FairShareQueue(max_depth=max_pending_points,
                                    weights=tenant_weights)
        self.jobs: Dict[str, Job] = {}
        self.chunks: Dict[str, Chunk] = {}
        #: cache key -> (job_id, index) currently computing that point
        self._leader: Dict[str, Tuple[str, int]] = {}
        #: cache key -> [(job_id, index), ...] awaiting the leader
        self._followers: Dict[str, List[Tuple[str, int]]] = {}
        #: cache key -> [(job_id, index), ...] awaiting a *foreign*
        #: process' publication (store claim by another owner)
        self._external: Dict[str, List[Tuple[str, int]]] = {}
        self._appenders: Dict[str, JsonlAppender] = {}
        self._job_seq = 0
        self._local_busy = 0
        self._seen_workers: set = set()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._tasks: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._stopping: Optional[asyncio.Event] = None
        self.ready = threading.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until :meth:`stop` (blocking; owns its event loop)."""
        asyncio.run(self.serve())

    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        if self.workers > 0:
            self._make_pool()
            # fork the workers NOW, before any client socket exists:
            # lazily-forked workers would inherit duplicates of open
            # connection fds and hold them for the pool's lifetime
            await self._loop.run_in_executor(self._pool, _pool_warmup)
        server = await start_http_server(self._router(), self.host,
                                         self.port)
        if self.port == 0:
            self.port = server.sockets[0].getsockname()[1]
        logger.info("campaign service listening on %s:%d (%d local "
                    "worker(s))", self.host, self.port, self.workers)
        self._spawn(self._dispatch_loop())
        self._spawn(self._reaper_loop())
        if self.store is not None:
            self._spawn(self._external_poll_loop())
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in list(self._tasks):
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            for appender in self._appenders.values():
                appender.close()
            self._appenders.clear()

    def stop(self) -> None:
        """Thread-safe shutdown request."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(
                lambda: self._stopping and self._stopping.set())

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _make_pool(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=_fork_context())

    def _spawn(self, coro) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _wakeup(self) -> None:
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _router(self) -> Router:
        router = Router()
        router.add("GET", "/v1/healthz", self._h_health)
        router.add("POST", "/v1/jobs", self._h_submit)
        router.add("GET", "/v1/jobs", self._h_list_jobs)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)", self._h_status)
        router.add("POST", "/v1/jobs/(?P<job_id>[^/]+)/cancel",
                   self._h_cancel)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/stream",
                   self._h_stream)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/results",
                   self._h_results)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/telemetry",
                   self._h_telemetry)
        router.add("GET", "/v1/jobs/(?P<job_id>[^/]+)/trace",
                   self._h_trace)
        router.add("GET", "/v1/tenants/(?P<tenant>[^/]+)/usage",
                   self._h_usage)
        router.add("GET", "/v1/metrics", self._h_metrics)
        router.add("GET", "/metrics", self._h_prometheus)
        router.add("POST", "/v1/workers/lease", self._h_lease)
        router.add("POST", "/v1/workers/complete", self._h_complete)
        return router

    def _job_or_404(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        return job

    # ------------------------------------------------------------------
    # fleet observability: the server's own trace segment per job
    # ------------------------------------------------------------------

    def _start_trace(self, job: Job) -> None:
        """Mint the job's trace context and open the server's own
        telemetry segment (segment 0 of the stitched trace).

        Server events are recorded with *absolute* wall-clock
        timestamps under ``epoch_unix = 0.0`` — the stitcher re-bases
        every segment onto the earliest event, so server and worker
        planes land on one timeline regardless of each process'
        ``perf_counter`` epoch.
        """
        job.trace_context = TraceContext.mint()
        job.segments.append({
            "traceparent": job.trace_context.to_traceparent(),
            "worker": "server",
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "epoch_unix": 0.0,
            "spans": [],
            "spans_dropped": 0,
            "metrics": None,
        })

    def _server_event(self, job: Job, kind: str, name: str,
                      track: str, start_wall: float, duration: float,
                      **attrs: Any) -> None:
        if job.trace_context is None or not job.segments:
            return
        segment = job.segments[0]
        if len(segment["spans"]) >= DEFAULT_SEGMENT_SPANS:
            segment["spans_dropped"] += 1
            return
        segment["spans"].append(
            [kind, name, track, start_wall, duration, attrs or None])

    def _add_segment(self, job: Job, payload: Any) -> None:
        """Adopt an executor's telemetry segment: keep its spans for
        stitching (bounded) and fold its metrics into the fleet view."""
        segment = coerce_segment(payload)
        if segment is None:
            return
        if segment["metrics"] is not None:
            self.fleet.add(segment["metrics"])
        if job.trace_context is None:
            return
        if len(job.segments) >= MAX_JOB_SEGMENTS:
            job.segments_dropped += 1
            return
        job.segments.append(segment)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    async def _h_submit(self, request: Request) -> Response:
        try:
            job_request = JobRequest.from_payload(request.json())
        except SubmitError as exc:
            raise HttpError(400, str(exc))
        job = self._submit(job_request)
        return Response.json(job.status(), status=201)

    def _submit(self, request: JobRequest) -> Job:
        """Admission: resolve → customize → plan → verify → classify →
        enqueue.  Runs synchronously on the event loop, so admission of
        concurrent submissions is serialized and race-free."""
        try:
            campaign = resolve_spec_ref(request.spec)
        except SpecError as exc:
            raise HttpError(400, f"cannot resolve spec: {exc}")
        campaign = self._customize(campaign, request)
        execution = CampaignExecution(campaign, request.retries,
                                      verify=self.verify)
        # the first point stands for the whole spec: a crashing build
        # stays runnable, so the worker classifies it like any failure
        _, rejected = execution.preflight(
            [execution.task(0)] if execution.records else [])
        if rejected:
            self.metrics.counter("service.jobs.rejected").inc()
            raise HttpError(422, "static verification failed",
                            campaign=campaign.name,
                            diagnostics=rejected[0][1].to_dict())

        # classify every point before mutating any shared state, so a
        # 429 leaves no residue
        cached_hits: List[Tuple[int, RunRecord]] = []
        follow: List[Tuple[int, str]] = []
        external: List[Tuple[int, str]] = []
        dispatch: List[Tuple[int, str]] = []
        seen_in_job: Dict[str, int] = {}
        for index, key in enumerate(execution.keys):
            hit = self.store.get(key) if self.store is not None \
                else None
            if hit is not None and hit.status == "ok":
                cached_hits.append((index, hit))
            elif key in self._leader or key in seen_in_job:
                follow.append((index, key))
            elif key in self._external:
                external.append((index, key))
            elif self.store is not None \
                    and self.store.claimed_elsewhere(key, self.owner):
                external.append((index, key))
            else:
                dispatch.append((index, key))
                seen_in_job[key] = index
        if not self.queue.has_capacity(len(dispatch)):
            self.metrics.counter("service.jobs.rejected").inc()
            raise HttpError(
                429, "queue full",
                pending=self.queue.depth(),
                limit=self.queue.max_depth,
                requested=len(dispatch))

        self._job_seq += 1
        job_id = f"j{self._job_seq:05d}"
        job = Job(job_id, request, execution)
        if self.out_dir is not None:
            execution.failures_dir = \
                self.out_dir / "jobs" / job_id / "failures"
        path, _ = split_spec_ref(request.spec)
        job.exec_ref = f"{path}::{campaign.name}"
        self.jobs[job_id] = job
        if self.observe and request.observe:
            self._start_trace(job)
            self._server_event(job, INSTANT, "job.submit", "jobs",
                               time.time(), 0.0, job_id=job_id,
                               tenant=request.tenant,
                               campaign=campaign.name)
        self._open_appender(job)
        self.metrics.counter("service.jobs.submitted").inc()
        self.metrics.counter("service.jobs.submitted",
                             tenant=request.tenant).inc()

        for index, hit in cached_hits:
            self._adopt(job, index, hit, source="cached")
        for index, key in follow:
            self._followers.setdefault(key, []).append((job_id, index))
        for index, key in external:
            self._external.setdefault(key, []).append((job_id, index))
        tasks = []
        for index, key in dispatch:
            if self.store is not None:
                self.store.try_claim(key, self.owner)
            self._leader[key] = (job_id, index)
            tasks.append(execution.task(index))
        if tasks:
            for chunk in job.make_chunks(tasks):
                self.chunks[chunk.chunk_id] = chunk
                self.queue.push(chunk)
        elif not job.terminal and job.counts["completed"] \
                == job.counts["total"]:
            self._finish_job(job)
        self._observe_queue_depth()
        self._wakeup()
        return job

    @staticmethod
    def _customize(campaign: Campaign,
                   request: JobRequest) -> Campaign:
        """Apply submit-time overrides on a copy of the shared campaign
        object (spec modules are cached process-wide; never mutate)."""
        import dataclasses

        changes: Dict[str, Any] = {}
        if request.root_seed is not None:
            changes["root_seed"] = request.root_seed
        if request.limit is not None:
            changes["space"] = FixedPoints(
                campaign.points()[:request.limit])
        if not changes:
            return campaign
        return dataclasses.replace(campaign, **changes)

    # ------------------------------------------------------------------
    # point finalization, dedup and streaming
    # ------------------------------------------------------------------

    def _open_appender(self, job: Job) -> None:
        if self.out_dir is None:
            return
        directory = self.out_dir / "jobs" / job.id
        directory.mkdir(parents=True, exist_ok=True)
        self._appenders[job.id] = JsonlAppender(
            directory / "records.jsonl")

    def _adopt(self, job: Job, index: int, result: RunRecord,
               source: str,
               outcome: Optional[Dict[str, Any]] = None) -> None:
        """Complete one point from an already-computed record (store
        hit or dedup'd leader result, with the leader's outcome)."""
        if not job.terminal \
                and job.execution.adopt(index, result, outcome):
            self._finalize_point(job, index, source)

    def _finalize_point(self, job: Job, index: int, source: str) -> None:
        """Count and stream a point the job's execution just made final
        (``source``: executed, cached or dedup)."""
        record = job.execution.records[index]
        status = record.status
        job.counts["completed"] += 1
        job.counts["ok" if status == "ok" else "failed"] += 1
        counter = {"cached": "cached", "dedup": "deduped",
                   "executed": "executed"}[source]
        job.counts[counter] += 1
        tenant = job.request.tenant
        self.metrics.counter(f"service.points.{counter}").inc()
        self.metrics.counter(f"service.points.{counter}",
                             tenant=tenant).inc()
        if status == "failed":
            self.metrics.counter("service.points.failed").inc()
            self.metrics.counter("service.points.failed",
                                 tenant=tenant).inc()
            # per-kind detail lives under its own family: folding the
            # failure kind into service.points.* would collide with
            # the exposition's kind="failed" discriminator label
            self.metrics.counter(
                "service.point.failures", tenant=tenant,
                kind=record.failure_kind or "unknown").inc()
        if source == "executed":
            self.metrics.histogram(
                "service.point.seconds", bounds=LATENCY_BOUNDS,
                tenant=tenant).observe(record.wall_time)
        else:
            self._server_event(job, INSTANT, "cache.hit", "cache",
                               time.time(), 0.0, index=index,
                               source=source)

        entry = record.to_dict()
        entry["seq"] = len(job.completed)
        entry["source"] = source
        job.completed.append(entry)
        appender = self._appenders.get(job.id)
        if appender is not None:
            appender.append(entry)
        for subscriber in list(job.subscribers):
            subscriber.put_nowait(entry)
        if job.counts["completed"] == job.counts["total"] \
                and not job.terminal:
            self._finish_job(job)

    def _finish_job(self, job: Job, state: str = DONE) -> None:
        job.state = state
        if job.started_monotonic is None:
            # fully served from cache/dedup: the whole lifetime was
            # waiting on others' work; run time is effectively zero
            self._mark_started(job)
        job.finished_monotonic = time.monotonic()
        run_seconds = job.run_seconds()
        if run_seconds is not None:
            self.metrics.histogram(
                "job.run_seconds",
                bounds=LATENCY_BOUNDS).observe(run_seconds)
        self._server_event(job, SPAN, "job.run", "jobs",
                           job.submitted_at,
                           time.time() - job.submitted_at,
                           job_id=job.id,
                           tenant=job.request.tenant, state=state,
                           **{key: job.counts[key]
                              for key in ("total", "cached",
                                          "deduped", "executed",
                                          "failed")})
        self.metrics.counter(
            "service.jobs.cancelled" if state == CANCELLED
            else "service.jobs.completed").inc()
        appender = self._appenders.pop(job.id, None)
        if appender is not None:
            appender.close()
        for subscriber in list(job.subscribers):
            subscriber.put_nowait(None)

    def _mark_started(self, job: Job) -> None:
        if job.started_monotonic is None:
            job.started_monotonic = time.monotonic()
            if job.state == QUEUED:
                job.state = RUNNING
            wait = job.wait_seconds()
            if wait is not None:
                self.metrics.histogram(
                    "job.wait_seconds",
                    bounds=LATENCY_BOUNDS).observe(wait)

    def _on_point_outcome(self, job: Job,
                          outcome: Dict[str, Any]) -> None:
        execution = job.execution
        index = outcome["index"]
        if job.terminal \
                or execution.records[index].status != "pending":
            # a cancelled job (or a late duplicate) keeps nothing; the
            # result still serves the shared store and the followers
            result = execution.result_of(outcome)
        else:
            retry = execution.settle(outcome)
            if retry is not None:
                self._push_chunk(job, [retry])
                self.metrics.counter("service.points.retried").inc()
                return
            result = execution.records[index]
            self._finalize_point(job, index, source="executed")
        key = execution.keys[index]
        if self.store is not None:
            self.store.publish(key, result, owner=self.owner)
        if self._leader.get(key) == (job.id, index):
            del self._leader[key]
        for fjob_id, findex in self._followers.pop(key, []):
            follower = self.jobs.get(fjob_id)
            if follower is not None:
                self._adopt(follower, findex, result, "dedup", outcome)

    def _push_chunk(self, job: Job, tasks: List[RunTask]) -> None:
        """Queue an ad-hoc (retry/requeue/promotion) chunk."""
        chunk = job.chunk(tasks)
        self.chunks[chunk.chunk_id] = chunk
        self.queue.push(chunk, force=True)
        self._wakeup()

    def _record_queue_wait(self, job: Job, chunk: Chunk) -> None:
        """Queue-wait accounting at the moment a chunk leaves the
        queue for an executor (local pool slot or remote lease)."""
        now = time.time()
        created = chunk.created_wall or now
        wait = max(0.0, now - created)
        self.metrics.histogram(
            "service.queue.wait_seconds", bounds=LATENCY_BOUNDS,
            tenant=chunk.tenant).observe(wait)
        self._server_event(job, SPAN, "queue.wait", "queue",
                           created, wait, chunk=chunk.chunk_id,
                           tenant=chunk.tenant)

    def _complete_chunk(self, chunk: Chunk,
                        outcomes: List[Dict[str, Any]],
                        worker: str,
                        telemetry: Any = None) -> bool:
        if chunk.state == "done":
            self.metrics.counter("service.chunks.duplicate").inc()
            return False
        # only outcomes for this chunk's own tasks count, each with the
        # attempt that was dispatched; anything else is ignored
        attempts = {index: attempt for index, _p, attempt in chunk.tasks}
        own: Dict[int, Dict[str, Any]] = {}
        for outcome in outcomes:
            index = outcome.get("index") \
                if isinstance(outcome, dict) else None
            if type(index) is int and index in attempts:
                own.setdefault(index,
                               dict(outcome, attempt=attempts[index]))
        chunk.state = "done"
        self.chunks.pop(chunk.chunk_id, None)
        self.metrics.counter("service.chunks.completed").inc()
        job = self.jobs.get(chunk.job_id)
        if job is None:
            return False
        if telemetry is not None:
            self._add_segment(job, telemetry)
        if chunk.started_wall:
            self._server_event(
                job, SPAN, "chunk.lease", "leases",
                chunk.started_wall,
                max(0.0, time.time() - chunk.started_wall),
                chunk=chunk.chunk_id, worker=worker,
                tasks=len(chunk.tasks))
        for outcome in own.values():
            self._on_point_outcome(job, outcome)
        missing = [task for task in chunk.tasks
                   if task[0] not in own
                   and job.execution.records[task[0]].status
                   == "pending"]
        if missing and not job.terminal:
            self._push_chunk(job, missing)
            self.metrics.counter("service.chunks.requeued").inc()
        self._observe_queue_depth()
        self._wakeup()
        return True

    def _observe_queue_depth(self) -> None:
        self.metrics.gauge("queue.depth").set(self.queue.depth())
        for tenant in {job.request.tenant
                       for job in self.jobs.values()}:
            self.metrics.gauge("queue.depth", tenant=tenant).set(
                self.queue.depth(tenant))
        # worker liveness: active leases per executor name (zeroing
        # previously-seen workers so a vanished host reads 0, not its
        # last value)
        leases: Dict[str, int] = {}
        for chunk in self.chunks.values():
            if chunk.state == "leased" and chunk.worker:
                leases[chunk.worker] = leases.get(chunk.worker, 0) + 1
        self._seen_workers.update(leases)
        for worker in self._seen_workers:
            self.metrics.gauge("workers.active_leases",
                               worker=worker).set(
                leases.get(worker, 0))
        self.metrics.gauge("workers.busy_local").set(self._local_busy)

    # ------------------------------------------------------------------
    # local execution
    # ------------------------------------------------------------------

    def _local_capacity(self) -> int:
        if self._pool is None:
            return 0
        return self.workers - self._local_busy

    async def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            while self._local_capacity() > 0:
                chunk = self.queue.pop()
                if chunk is None:
                    break
                self._start_local(chunk)
            self._observe_queue_depth()
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.5)
            except asyncio.TimeoutError:
                pass

    def _take(self, chunk: Chunk, worker: str) -> Optional[Job]:
        """Lease a popped chunk to ``worker`` (the reaper never expires
        ``"local"`` leases); ``None`` when its job is gone."""
        job = self.jobs.get(chunk.job_id)
        if job is None or job.terminal:
            chunk.state = "done"
            self.chunks.pop(chunk.chunk_id, None)
            return None
        chunk.lease(worker, self.lease_timeout)
        self._mark_started(job)
        self._record_queue_wait(job, chunk)
        self.metrics.counter("service.chunks.leased").inc()
        return job

    def _start_local(self, chunk: Chunk) -> None:
        job = self._take(chunk, "local")
        if job is not None:
            self._local_busy += 1
            self._spawn(self._run_local(job, chunk))

    async def _run_local(self, job: Job, chunk: Chunk) -> None:
        try:
            executed = await self._loop.run_in_executor(
                self._pool, execute_chunk_by_ref, job.exec_ref,
                chunk.tasks, job.request.timeout, chunk.traceparent,
                "pool")
        except Exception as exc:
            logger.exception("local pool failed on chunk %s",
                             chunk.chunk_id)
            # a broken pool poisons every future submission: rebuild it
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._make_pool()
            executed = {"outcomes": CampaignExecution.lost(chunk.tasks,
                                                           exc),
                        "telemetry": None}
        finally:
            self._local_busy -= 1
        self._complete_chunk(chunk, executed["outcomes"], worker="local",
                             telemetry=executed["telemetry"])

    # ------------------------------------------------------------------
    # remote workers (pull-based work stealing)
    # ------------------------------------------------------------------

    async def _h_lease(self, request: Request) -> Response:
        payload = request.json()
        worker = str(payload.get("worker") or "remote")
        chunk = self.queue.pop()
        job = self._take(chunk, worker) if chunk is not None else None
        if job is None:
            return Response.no_content()
        self._observe_queue_depth()
        return Response.json({
            "job_id": job.id,
            "chunk_id": chunk.chunk_id,
            "spec": job.exec_ref,
            "tasks": [[index, params, attempt]
                      for index, params, attempt in chunk.tasks],
            "timeout": job.request.timeout,
            "lease_timeout": self.lease_timeout,
            "traceparent": chunk.traceparent,
        })

    async def _h_complete(self, request: Request) -> Response:
        payload = request.json()
        chunk_id = payload.get("chunk_id")
        outcomes = payload.get("outcomes")
        if not chunk_id or not isinstance(outcomes, list):
            raise HttpError(400,
                            "complete needs chunk_id and outcomes[]")
        chunk = self.chunks.get(str(chunk_id))
        if chunk is None or chunk.state == "done":
            self.metrics.counter("service.chunks.duplicate").inc()
            return Response.json({"accepted": False})
        accepted = self._complete_chunk(
            chunk, outcomes, worker=str(payload.get("worker") or "?"),
            telemetry=payload.get("telemetry"))
        return Response.json({"accepted": accepted})

    async def _reaper_loop(self) -> None:
        cadence = max(0.05, min(self.lease_timeout / 4, 1.0))
        while not self._stopping.is_set():
            await asyncio.sleep(cadence)
            now = time.monotonic()
            for chunk in list(self.chunks.values()):
                if chunk.worker == "local" or not chunk.expired(now):
                    continue
                job = self.jobs.get(chunk.job_id)
                if job is None or job.terminal:
                    chunk.state = "done"
                    self.chunks.pop(chunk.chunk_id, None)
                    continue
                logger.warning(
                    "lease expired on chunk %s (worker %s); "
                    "re-queueing", chunk.chunk_id, chunk.worker)
                chunk.requeue()
                self.queue.push(chunk, force=True)
                self.metrics.counter("service.chunks.requeued").inc()
                self._wakeup()

    async def _external_poll_loop(self) -> None:
        """Resolve points claimed by *other* service processes sharing
        the store: adopt their published results, or take over keys
        whose claim went stale without a publication."""
        while not self._stopping.is_set():
            await asyncio.sleep(EXTERNAL_POLL_SECONDS)
            for key in list(self._external):
                hit = self.store.get(key)
                if hit is not None and hit.status == "ok":
                    for job_id, index in self._external.pop(key, []):
                        job = self.jobs.get(job_id)
                        if job is not None:
                            self._adopt(job, index, hit, "cached")
                    continue
                if self.store.claimed_elsewhere(key, self.owner):
                    continue  # still being computed elsewhere
                waiters = self._external.pop(key, [])
                self._promote(key, waiters)

    def _promote(self, key: str,
                 waiters: List[Tuple[str, int]]) -> None:
        """Make the first live waiter the leader of ``key`` and queue
        its point; remaining waiters become followers."""
        live = [(job_id, index) for job_id, index in waiters
                if (job := self.jobs.get(job_id)) is not None
                and not job.terminal
                and job.execution.records[index].status == "pending"]
        if not live:
            return
        job_id, index = live[0]
        job = self.jobs[job_id]
        if self.store is not None:
            self.store.try_claim(key, self.owner)
        self._leader[key] = (job_id, index)
        if len(live) > 1:
            self._followers.setdefault(key, []).extend(live[1:])
        self._push_chunk(job, [job.execution.task(index)])

    # ------------------------------------------------------------------
    # status / stream / results / cancel
    # ------------------------------------------------------------------

    async def _h_health(self, request: Request) -> Response:
        return Response.json({
            "ok": True, "version": _VERSION,
            "jobs": len(self.jobs),
            "queue_depth": self.queue.depth(),
            "local_workers": self.workers,
        })

    async def _h_list_jobs(self, request: Request) -> Response:
        tenant = request.query.get("tenant")
        jobs = [job.status() for job in self.jobs.values()
                if tenant is None or job.request.tenant == tenant]
        return Response.json({"jobs": jobs})

    async def _h_status(self, request: Request,
                        job_id: str) -> Response:
        return Response.json(self._job_or_404(job_id).status())

    async def _h_cancel(self, request: Request,
                        job_id: str) -> Response:
        job = self._job_or_404(job_id)
        if not job.terminal:
            self._cancel(job)
        return Response.json(job.status())

    def _cancel(self, job: Job) -> None:
        self.queue.discard_job(job.id)
        in_flight_indices = set()
        for chunk in list(self.chunks.values()):
            if chunk.job_id != job.id:
                continue
            if chunk.state == "leased":
                # let it finish: its result still serves followers and
                # the shared store; the cancelled job ignores it
                in_flight_indices.update(
                    index for index, _p, _a in chunk.tasks)
            else:
                chunk.cancelled = True
                chunk.state = "done"
                self.chunks.pop(chunk.chunk_id, None)
        # re-home or release this job's undispatched leaderships
        for key, (owner_job, index) in list(self._leader.items()):
            if owner_job != job.id or index in in_flight_indices:
                continue
            del self._leader[key]
            waiters = self._followers.pop(key, [])
            if waiters:
                self._promote(key, waiters)
            elif self.store is not None:
                self.store.release(key, owner=self.owner)
        # drop this job's follower/external registrations
        for table in (self._followers, self._external):
            for key in list(table):
                table[key] = [(jid, idx) for jid, idx in table[key]
                              if jid != job.id]
                if not table[key]:
                    del table[key]
        self._finish_job(job, state=CANCELLED)
        self._observe_queue_depth()

    async def _h_stream(self, request: Request,
                        job_id: str) -> StreamingResponse:
        job = self._job_or_404(job_id)
        sse = (request.query.get("sse") == "1"
               or "text/event-stream"
               in request.headers.get("accept", ""))
        subscriber: asyncio.Queue = asyncio.Queue()
        job.subscribers.append(subscriber)
        # no await between registration and snapshot: the two views
        # tile the record sequence exactly (no gap, no overlap)
        snapshot = list(job.completed)
        terminal = job.terminal

        def encode(entry: Dict[str, Any]) -> bytes:
            from ..campaign.records import canonical_json
            line = canonical_json(entry)
            if sse:
                return f"data: {line}\n\n".encode()
            return (line + "\n").encode()

        async def gen():
            try:
                for entry in snapshot:
                    yield encode(entry)
                if not terminal:
                    while True:
                        entry = await subscriber.get()
                        if entry is None:
                            break
                        yield encode(entry)
                if sse:
                    yield b"event: end\ndata: {}\n\n"
            finally:
                if subscriber in job.subscribers:
                    job.subscribers.remove(subscriber)

        content_type = ("text/event-stream" if sse
                        else "application/x-ndjson")
        return StreamingResponse(gen(), content_type=content_type)

    def _results_view(self, job: Job) -> CampaignResults:
        return CampaignResults(
            [record for record in job.execution.records
             if record.status != "pending"])

    async def _h_results(self, request: Request,
                         job_id: str) -> Response:
        job = self._job_or_404(job_id)
        results = self._results_view(job)
        payload: Dict[str, Any] = {
            "id": job.id,
            "state": job.state,
            "summary": results.summary(),
            "counts": dict(job.counts),
            "fingerprint": (results.fingerprint()
                            if job.state == DONE else None),
            "metrics": {},
        }
        ok = results.ok()
        for name in results.metric_names():
            values = ok.metric(name)
            if len(values):
                payload["metrics"][name] = {
                    "mean": float(values.mean()),
                    "min": float(values.min()),
                    "max": float(values.max()),
                    "count": int(len(values)),
                }
        return Response.json(payload)

    async def _h_telemetry(self, request: Request,
                           job_id: str) -> Response:
        job = self._job_or_404(job_id)
        merged: Dict[str, Dict[str, float]] = {}
        points = 0
        for record in job.execution.records:
            snapshot = record.metrics_telemetry
            if not snapshot:
                continue
            points += 1
            for key, value in snapshot.items():
                if not isinstance(value, (int, float)):
                    continue
                slot = merged.setdefault(
                    key, {"sum": 0.0, "count": 0.0})
                slot["sum"] += float(value)
                slot["count"] += 1.0
        telemetry = {
            key: {"sum": slot["sum"], "count": int(slot["count"]),
                  "mean": slot["sum"] / slot["count"]}
            for key, slot in merged.items()}
        return Response.json({
            "id": job.id,
            "points_with_telemetry": points,
            "telemetry": telemetry,
        })

    async def _h_metrics(self, request: Request) -> Response:
        self._observe_queue_depth()
        return Response.json(self.metrics.to_dict())

    # ------------------------------------------------------------------
    # fleet observability endpoints
    # ------------------------------------------------------------------

    async def _h_prometheus(self, request: Request) -> Response:
        """Prometheus text exposition of the fleet-merged metrics:
        the server's live registry composed (non-destructively) with
        every worker segment's registry collected so far."""
        self._observe_queue_depth()
        text = prometheus_text(
            self.fleet.merged(self.metrics.to_dict()))
        return Response(
            200, text.encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    async def _h_trace(self, request: Request,
                       job_id: str) -> Response:
        job = self._job_or_404(job_id)
        if job.trace_context is None:
            raise HttpError(
                404, f"no trace for job {job_id} (observability is "
                     "off for this job)")
        trace = stitch_job_trace(job.trace_context.to_traceparent(),
                                 job.segments)
        other = trace["otherData"]
        other["job"] = job.id
        other["state"] = job.state
        other["dropped_segments"] = job.segments_dropped
        return Response.json(trace)

    async def _h_usage(self, request: Request,
                       tenant: str) -> Response:
        """Per-tenant SLO accounting, assembled from the tenant-labeled
        counters/histograms this server maintains at finalization."""
        jobs = [job for job in self.jobs.values()
                if job.request.tenant == tenant]
        if not jobs:
            raise HttpError(404, f"no jobs for tenant: {tenant}")

        def counter_value(name: str, **labels: Any) -> float:
            metric = self.metrics.get(name, **labels)
            return float(metric.value) if metric is not None else 0.0

        points = {kind: counter_value(f"service.points.{kind}",
                                      tenant=tenant)
                  for kind in ("executed", "cached", "deduped",
                               "failed", )}
        completed = (points["executed"] + points["cached"]
                     + points["deduped"])
        hits = points["cached"] + points["deduped"]
        failure_kinds: Dict[str, float] = {}
        for key in self.metrics.names():
            name, labels = split_metric_key(key)
            if name == "service.point.failures" \
                    and labels.get("tenant") == tenant \
                    and "kind" in labels:
                failure_kinds[labels["kind"]] = counter_value(
                    name, **labels)
        histograms = {}
        for short, name in (("queue_wait_seconds",
                             "service.queue.wait_seconds"),
                            ("point_seconds",
                             "service.point.seconds")):
            metric = self.metrics.get(name, tenant=tenant)
            histograms[short] = (metric.to_dict()
                                 if metric is not None else None)
        return Response.json({
            "tenant": tenant,
            "jobs": {
                "total": len(jobs),
                "by_state": {
                    state: sum(1 for job in jobs
                               if job.state == state)
                    for state in (QUEUED, RUNNING, DONE, CANCELLED)},
            },
            "points": points,
            "cache_hit_ratio": (hits / completed) if completed else 0.0,
            "failure_kinds": failure_kinds,
            "queue_depth": self.queue.depth(tenant),
            **histograms,
        })


# ----------------------------------------------------------------------
# embedding helper
# ----------------------------------------------------------------------

class ServiceHandle:
    """A service running on a daemon thread (tests, notebooks)."""

    def __init__(self, service: CampaignService,
                 thread: threading.Thread):
        self.service = service
        self.thread = thread

    @property
    def url(self) -> str:
        return self.service.url

    def stop(self, timeout: float = 5.0) -> None:
        self.service.stop()
        self.thread.join(timeout=timeout)


def start_in_thread(**kwargs) -> ServiceHandle:
    """Start a :class:`CampaignService` on a daemon thread and block
    until it is accepting connections.  ``port=0`` picks a free port
    (read it back from ``handle.service.port``)."""
    service = CampaignService(**kwargs)
    thread = threading.Thread(target=service.run,
                              name="campaign-service", daemon=True)
    thread.start()
    if not service.ready.wait(timeout=10.0):
        raise RuntimeError("campaign service failed to start")
    return ServiceHandle(service, thread)
