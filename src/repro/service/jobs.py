"""Job, chunk and submission models for the campaign service.

A *job* is one submitted campaign: a spec reference, a tenant, a
priority, and its :class:`~repro.campaign.core.CampaignExecution` —
the planned (seeded) records, cache keys and settle/retry/artifact
rules shared with the in-process runner.  A *chunk* is the dispatch
unit — a slice of a job's pending points shipped to a local pool
worker or leased to a remote worker.  Both local and remote executors
run the same entry point, :func:`execute_chunk_by_ref`, which
re-resolves the campaign from its textual spec reference inside the
worker process — the wire (and the pickle stream) carries only strings
and parameter dicts, never live callables or simulators.
"""

from __future__ import annotations

import itertools
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..campaign.core import (
    CampaignExecution,
    RunTask,
    _execute_chunk,
    outcome_to_json,
    run_target,
)
from ..campaign.loader import resolve_spec_ref
from ..observe import Telemetry
from ..observe.fleet import DEFAULT_SEGMENT_SPANS, telemetry_payload
from .queue import PRIORITIES

#: Job lifecycle states.
QUEUED, RUNNING, DONE, CANCELLED = ("queued", "running", "done",
                                    "cancelled")

#: Default points per chunk when the submitter does not choose one:
#: small enough that fair-share interleaving is fine-grained, large
#: enough to amortize process round-trips.
DEFAULT_CHUNK_SIZE = 8


class SubmitError(Exception):
    """A submission is structurally invalid (maps to HTTP 400)."""


@dataclass
class JobRequest:
    """Parsed, validated submit payload."""

    spec: str
    tenant: str = "default"
    priority: str = "normal"
    root_seed: Optional[int] = None
    limit: Optional[int] = None
    timeout: Optional[float] = None
    retries: int = 1
    chunk_size: Optional[int] = None
    description: str = ""
    #: per-job telemetry opt-out; effective only when the *server* has
    #: observability on (``serve --observe on``, the default)
    observe: bool = True

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobRequest":
        if not isinstance(payload, dict):
            raise SubmitError("submit body must be a JSON object")
        spec = payload.get("spec")
        if not spec or not isinstance(spec, str):
            raise SubmitError(
                "submit needs a 'spec' reference "
                "(\"path/to/spec.py\" or \"spec.py::campaign-name\")")
        request = cls(spec=spec)
        request.tenant = str(payload.get("tenant") or "default")
        request.priority = str(payload.get("priority") or "normal")
        if request.priority not in PRIORITIES:
            raise SubmitError(
                f"priority must be one of {list(PRIORITIES)}; "
                f"got {request.priority!r}")
        for name, caster in (("root_seed", int), ("limit", int),
                             ("timeout", float), ("chunk_size", int)):
            value = payload.get(name)
            if value is not None:
                try:
                    setattr(request, name, caster(value))
                except (TypeError, ValueError):
                    raise SubmitError(
                        f"{name} must be a number; got {value!r}")
        if request.limit is not None and request.limit < 1:
            raise SubmitError("limit must be >= 1")
        if request.chunk_size is not None and request.chunk_size < 1:
            raise SubmitError("chunk_size must be >= 1")
        retries = payload.get("retries")
        if retries is not None:
            try:
                request.retries = max(0, int(retries))
            except (TypeError, ValueError):
                raise SubmitError(f"retries must be an int; "
                                  f"got {retries!r}")
        request.description = str(payload.get("description") or "")
        request.observe = bool(payload.get("observe", True))
        return request

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec, "tenant": self.tenant,
            "priority": self.priority, "root_seed": self.root_seed,
            "limit": self.limit, "timeout": self.timeout,
            "retries": self.retries, "chunk_size": self.chunk_size,
            "description": self.description, "observe": self.observe,
        }


@dataclass
class Chunk:
    """One dispatch unit: a slice of a job's pending tasks."""

    chunk_id: str
    job_id: str
    tenant: str
    priority: str
    tasks: List[RunTask]
    state: str = "queued"          # queued | leased | done
    worker: Optional[str] = None
    deadline: Optional[float] = None   # lease expiry (monotonic)
    cancelled: bool = False
    leases: int = 0
    #: trace context for this dispatch (the job context's child),
    #: carried to executors via the lease payload / pickle stream
    traceparent: Optional[str] = None
    #: wall-clock instants bounding the queue-wait span
    created_wall: float = 0.0
    started_wall: float = 0.0

    def lease(self, worker: str, timeout: float) -> None:
        self.state = "leased"
        self.worker = worker
        self.deadline = time.monotonic() + timeout
        self.leases += 1
        self.started_wall = time.time()

    def requeue(self) -> None:
        self.state = "queued"
        self.worker = None
        self.deadline = None

    def expired(self, now: Optional[float] = None) -> bool:
        return (self.state == "leased" and self.deadline is not None
                and (now or time.monotonic()) > self.deadline)


class Job:
    """One submitted campaign and its live execution state."""

    def __init__(self, job_id: str, request: JobRequest,
                 execution: CampaignExecution):
        self.id = job_id
        self.request = request
        #: the campaign's records, cache keys and settle rules
        self.execution = execution
        #: canonical ``path::name`` reference workers execute by
        self.exec_ref = request.spec
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_monotonic: Optional[float] = None
        self.finished_monotonic: Optional[float] = None
        self.created_monotonic = time.monotonic()
        #: completion-ordered list of finalized record dicts, each
        #: tagged with a monotonically increasing ``seq``.
        self.completed: List[Dict[str, Any]] = []
        self.subscribers: List[Any] = []   # asyncio.Queue per stream
        #: fleet-observability state (set by the server at admission):
        #: the job's root trace context and the telemetry segments
        #: collected from every executor, stitched on demand into one
        #: Perfetto trace by ``GET /v1/jobs/{id}/trace``.
        self.trace_context: Optional[Any] = None
        self.segments: List[Dict[str, Any]] = []
        self.segments_dropped = 0
        self.counts: Dict[str, int] = {
            "total": len(execution.records), "completed": 0, "ok": 0,
            "failed": 0, "cached": 0, "deduped": 0, "executed": 0,
        }
        self._chunk_seq = itertools.count(1)

    # -- structure -----------------------------------------------------------

    def chunk(self, tasks: List[RunTask]) -> Chunk:
        """A new dispatch unit of ``tasks``, traced (when the job is)
        under a child of the job's trace context."""
        chunk = Chunk(chunk_id=f"{self.id}/{next(self._chunk_seq)}",
                      job_id=self.id, tenant=self.request.tenant,
                      priority=self.request.priority, tasks=tasks,
                      created_wall=time.time())
        if self.trace_context is not None:
            chunk.traceparent = \
                self.trace_context.child().to_traceparent()
        return chunk

    def make_chunks(self, tasks: List[RunTask]) -> List[Chunk]:
        size = self.request.chunk_size or DEFAULT_CHUNK_SIZE
        return [self.chunk(tasks[i:i + size])
                for i in range(0, len(tasks), size)]

    # -- status --------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, CANCELLED)

    def wait_seconds(self) -> Optional[float]:
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.created_monotonic

    def run_seconds(self) -> Optional[float]:
        if self.started_monotonic is None \
                or self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.started_monotonic

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "campaign": self.execution.campaign.name,
            "spec": self.request.spec,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "submitted_at": self.submitted_at,
            "wait_seconds": self.wait_seconds(),
            "run_seconds": self.run_seconds(),
            **self.counts,
        }


def execute_chunk_by_ref(spec_ref: str, tasks: List[RunTask],
                         timeout: Optional[float],
                         traceparent: Optional[str] = None,
                         worker: str = "",
                         max_spans: int = DEFAULT_SEGMENT_SPANS
                         ) -> Dict[str, Any]:
    """Worker entry point shared by the local pool and remote hosts.

    Resolves ``spec_ref`` (memoized per process by
    :func:`~repro.core.resolve.load_module_from_path`), executes the
    chunk through the campaign core — per-run SIGALRM timeout, failure
    classification, telemetry harvest — and returns ``{"outcomes":
    [...], "telemetry": segment}`` with JSON-safe outcomes.  Tasks
    arrive as ``(index, params, attempt)`` with seeds already planned
    into ``params``, so every executor produces bit-identical metrics.

    Telemetry is on when a ``traceparent`` is given: a chunk-local
    :class:`~repro.observe.Telemetry` hub (never shared between pool
    workers, pull-workers and server threads) records ``point.run``
    spans plus each point's simulation spans, shipped as a
    :func:`~repro.observe.fleet.telemetry_payload` segment; otherwise
    ``telemetry`` is ``None``.
    """
    target = run_target(resolve_spec_ref(spec_ref))
    tasks = [(int(i), dict(p), int(a)) for i, p, a in tasks]
    hub = Telemetry(max_events=max_spans) if traceparent else None
    with (hub.tracer.span("chunk.run", track="chunk", tasks=len(tasks))
          if hub is not None else nullcontext()):
        outcomes = _execute_chunk(target, tasks, timeout, hub)
    return {
        "outcomes": [outcome_to_json(outcome) for outcome in outcomes],
        "telemetry": (telemetry_payload(hub, worker=worker,
                                        traceparent=traceparent,
                                        max_spans=max_spans)
                      if hub is not None else None),
    }
