"""The campaign execution core: the one implementation of the
per-campaign execution rules shared by the in-process
:class:`~repro.campaign.runner.CampaignRunner`, the campaign service's
local process pool and its remote pull-workers.

:func:`plan_records` seeds every point deterministically.
:class:`CampaignExecution` owns the planned records, the code version
and cache key of every point, the static pre-flight (a ``build=``
point's model, or a ``run=`` campaign's callable), ``settle`` (retry
versus final, with ``failures/run_NNNNN.diagnostic.json`` and any
``.checkpoint.pkl`` for a final failure), adoption of cache/store/dedup
records, and the retryable outcome of a lost executor.
:func:`_execute_chunk` runs points inside an executor under a per-run
wall-clock timeout and classifies failures (:func:`classify_failure`).

Callers add only their transport: the runner a local process pool; the
service HTTP, the fair-share queue, leases and fleet-wide dedup.  Their
one policy difference is *which* points they pre-flight: the runner
every pending point, the service a job's first point at admission (a
rejection is its 422), because verifying costs several times what
executing a short point does.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import BindingError, ElaborationError, SchedulingError
from ..lib.seeding import seed_to_int, spawn_seed_sequences
from ..observe import Telemetry
from ..observe.metrics import LATENCY_BOUNDS
from ..resilience.health import diagnostic_of
from .cache import cache_key
from .records import RunRecord
from .spec import Campaign

logger = logging.getLogger(__name__)

#: (run, build, duration, metrics, checkpoint_every) — the picklable
#: execution target shipped to worker processes instead of a live
#: Campaign/Simulator.
RunTarget = Tuple[Optional[Callable], Optional[Callable], Any,
                  Optional[Callable], Any]

#: (index, params, attempt) — one unit of work.
RunTask = Tuple[int, Dict[str, Any], int]

#: Failures that re-running cannot fix: the model itself is broken
#: (bad hierarchy, unschedulable dataflow, unbound ports, wrong types).
#: Everything else — numerical trouble, timeouts, resource hiccups —
#: is worth the retry-once policy.
PERMANENT_FAILURES = (ElaborationError, SchedulingError, BindingError,
                      TypeError)


def classify_failure(exc: BaseException) -> str:
    """``"permanent"`` (do not retry) or ``"retryable"``."""
    return ("permanent" if isinstance(exc, PERMANENT_FAILURES)
            else "retryable")


class RunTimeout(Exception):
    """A single campaign run exceeded its wall-clock budget."""


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeout` after ``seconds`` of wall-clock time.

    Uses ``SIGALRM`` and therefore only arms in the main thread of a
    process on POSIX — exactly the situation inside a
    ``ProcessPoolExecutor`` worker.  Elsewhere it is a no-op.
    """
    usable = (
        seconds is not None and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:g}s timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except (ValueError, OSError) as exc:
        # Some embeddings (restricted interpreters, exotic threading
        # setups) refuse signal handlers even on the main thread; run
        # without the wall-clock guard rather than failing the point.
        logger.warning(
            "cannot install SIGALRM handler (%s); running without "
            "the %gs per-run timeout", exc, seconds,
        )
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_target(campaign: Campaign, checkpoint_every=None) -> RunTarget:
    """The picklable :data:`RunTarget` of ``campaign``."""
    return (campaign.run, campaign.build, campaign.duration,
            campaign.metrics, checkpoint_every)


def _execute_point(target: RunTarget, params: Dict[str, Any],
                   timeout: Optional[float],
                   hub: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Run one campaign point; never raises.

    When a :class:`~repro.observe.Telemetry` ``hub`` is given and the
    build attached none, a build-style point's simulator records into
    ``hub.fork()``: its spans land on the campaign/job trace, its
    ``metrics_telemetry`` covers this point alone, and its registry is
    merged into the hub afterwards so campaign totals add up.
    """
    run, build, duration, metrics_fn, checkpoint_every = target
    start = time.perf_counter()
    simulator = None
    failure_kind = None
    diagnostic = None
    checkpoint = None
    telemetry_snapshot = None
    point_hub = None
    try:
        with _deadline(timeout):
            if run is not None:
                metrics = run(dict(params))
            else:
                simulator = build(dict(params))
                if hub is not None \
                        and getattr(simulator, "telemetry",
                                    None) is None:
                    point_hub = hub.fork()
                    simulator.attach_telemetry(point_hub)
                if checkpoint_every is not None:
                    simulator.run(duration,
                                  checkpoint_every=checkpoint_every)
                else:
                    simulator.run(duration)
                snapshot = getattr(simulator, "metrics_snapshot", None)
                if snapshot is not None:
                    telemetry_snapshot = snapshot()
                top = simulator.top
                if metrics_fn is not None:
                    metrics = metrics_fn(top)
                elif hasattr(top, "metrics"):
                    metrics = top.metrics()
                else:
                    raise TypeError(
                        "Campaign(build=...) needs metrics= or a "
                        "top.metrics() method")
        if not isinstance(metrics, dict):
            raise TypeError(
                f"campaign run returned {type(metrics).__name__}, "
                "expected a metrics dict")
        status, error = "ok", None
    except Exception as exc:  # one bad point must not kill the campaign
        metrics = {}
        status = "failed"
        error = f"{type(exc).__name__}: {exc}"
        failure_kind = classify_failure(exc)
        report = diagnostic_of(exc)
        if report is not None:
            diagnostic = report.to_dict()
        manager = getattr(simulator, "checkpoint_manager", None)
        if manager is not None:
            latest = manager.latest()
            if latest is not None:
                checkpoint = latest.to_bytes()
    if point_hub is not None:
        hub.metrics.merge(point_hub.metrics)
    return {
        "status": status,
        "metrics": metrics,
        "error": error,
        "failure_kind": failure_kind,
        "diagnostic": diagnostic,
        "checkpoint": checkpoint,
        "metrics_telemetry": telemetry_snapshot,
        "wall_time": time.perf_counter() - start,
    }


def _execute_chunk(target: RunTarget, tasks: List[RunTask],
                   timeout: Optional[float],
                   hub: Optional[Telemetry] = None
                   ) -> List[Dict[str, Any]]:
    """Worker entry point: execute a chunk of runs, return result dicts."""
    results = []
    for index, params, attempt in tasks:
        if hub is not None:
            with hub.tracer.span("point.run", track="points",
                                 index=index, attempt=attempt) as span:
                outcome = _execute_point(target, params, timeout, hub)
                span.set(status=outcome["status"])
            hub.metrics.counter("worker.points",
                                status=outcome["status"]).inc()
            hub.metrics.histogram(
                "worker.point.seconds",
                bounds=LATENCY_BOUNDS).observe(outcome["wall_time"])
        else:
            outcome = _execute_point(target, params, timeout)
        outcome["index"] = index
        outcome["attempt"] = attempt
        results.append(outcome)
    return results


def plan_records(campaign: Campaign) -> List[RunRecord]:
    """Seeded skeleton records for every campaign point, in index order.

    Run ``k`` receives the ``k``-th child of
    ``SeedSequence(root_seed)`` injected under ``seed_key``, so any
    executor — the in-process runner, the campaign service's sharded
    workers, a remote host — derives identical parameters for the same
    point.
    """
    points = campaign.points()
    if campaign.seed_key is not None:
        children = spawn_seed_sequences(campaign.root_seed, len(points))
        seeds = [seed_to_int(child) for child in children]
    else:
        seeds = [None] * len(points)
    records = []
    for index, (point, seed) in enumerate(zip(points, seeds)):
        params = dict(point)
        if campaign.seed_key is not None:
            params.setdefault(campaign.seed_key, seed)
        records.append(RunRecord(index=index, params=params,
                                 seed=seed, status="pending"))
    return records


#: Outcome keys that survive HTTP transport between the service and
#: its remote workers.  ``checkpoint`` (raw pickle bytes) is local-only:
#: it is neither JSON-representable nor meaningful off-host.
TRANSPORTABLE_OUTCOME_KEYS = (
    "index", "attempt", "status", "metrics", "error", "failure_kind",
    "diagnostic", "metrics_telemetry", "wall_time",
)


def outcome_to_json(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Strip a :func:`_execute_point` outcome down to its JSON-safe,
    transportable fields (see :data:`TRANSPORTABLE_OUTCOME_KEYS`)."""
    return {key: outcome.get(key) for key in TRANSPORTABLE_OUTCOME_KEYS}


def _fork_context():
    """Prefer ``fork`` so callables defined in CLI-loaded spec files
    resolve in workers without re-importing; fall back to the platform
    default elsewhere (e.g. Windows/macOS spawn)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


class CampaignExecution:
    """One campaign's planned records and the rules that finish them:
    a non-permanent failure is re-attempted ``retries`` times; final
    failures leave artifacts under ``failures_dir`` (``None``: nowhere;
    assignable until the first settle); ``verify="off"`` skips
    :meth:`preflight`."""

    def __init__(self, campaign: Campaign, retries: int = 1,
                 failures_dir=None, verify: str = "auto"):
        self.campaign = campaign
        self.retries = max(0, int(retries))
        self.failures_dir = (Path(failures_dir)
                             if failures_dir is not None else None)
        self.verify = verify
        #: index-ordered records; ``status == "pending"`` until final
        self.records = plan_records(campaign)
        self.code_version = campaign.resolved_code_version()
        self._run_report = None

    @cached_property
    def keys(self) -> List[str]:
        """The cache/store key of every point, in index order; they
        embed the verifier ruleset, so results invalidate with it."""
        from ..verify import ruleset_version

        ruleset = ruleset_version()
        return [cache_key(self.campaign.name, record.params,
                          self.code_version, ruleset)
                for record in self.records]

    def task(self, index: int) -> RunTask:
        """The first-attempt task of point ``index``."""
        return (index, self.records[index].params, 1)

    # -- pre-flight ---------------------------------------------------------

    def preflight(self, tasks: List[RunTask]
                  ) -> Tuple[List[RunTask], List[Tuple[RunTask, Any]]]:
        """Statically verify ``tasks`` before any executor runs them.

        Returns ``(runnable, rejected)``; ``rejected`` pairs each task
        with its failing :class:`~repro.verify.VerificationReport`, and
        its record is already final as ``failure_kind="static"`` (with
        the report persisted under ``failures_dir``).  A ``build=``
        point is checked by building its model; a build that raises
        stays runnable, since execution already classifies build
        failures.  A ``run=`` campaign exposes no model: its callable
        gets the behavioral CODE lint, once per campaign.
        """
        if self.verify == "off":
            return list(tasks), []
        runnable: List[RunTask] = []
        rejected: List[Tuple[RunTask, Any]] = []
        for task in tasks:
            report = self._verify(task[1])
            if report is None or report.ok:
                runnable.append(task)
                continue
            rejected.append((task, report))
            record = self.records[task[0]]
            record.status = "failed"
            record.failure_kind = "static"
            record.error = ("static verification failed: "
                            + "; ".join(d.format()
                                        for d in report.errors))
            self._write_failure(record, {
                "diagnostic": {"message": record.error,
                               "verification": report.to_dict()},
            })
        return runnable, rejected

    def _verify(self, params: Dict[str, Any]):
        from ..verify import verify_callables, verify_model

        campaign = self.campaign
        if campaign.build is None:
            if self._run_report is None:
                self._run_report = verify_callables(
                    [(f"{campaign.name}.run", campaign.run)],
                    target=campaign.name)
            return self._run_report
        extra_code = [(f"{campaign.name}.build", campaign.build)]
        if campaign.metrics is not None:
            extra_code.append((f"{campaign.name}.metrics",
                               campaign.metrics))
        try:
            simulator = campaign.build(dict(params))
            return verify_model(simulator.top, extra_code=extra_code)
        except Exception:
            return None

    # -- settling -----------------------------------------------------------

    def settle(self, outcome: Dict[str, Any]) -> Optional[RunTask]:
        """Apply one executor outcome to its still-pending record.

        Returns the retry task when the point deserves another attempt,
        else ``None``: the record is final, and a final failure has left
        its artifacts.
        """
        record = self.records[outcome["index"]]
        attempt = outcome["attempt"]
        if (outcome.get("status") == "failed"
                and outcome.get("failure_kind") != "permanent"
                and attempt <= self.retries):
            record.wall_time += float(outcome.get("wall_time") or 0.0)
            return (record.index, record.params, attempt + 1)
        self._finish(record, self.result_of(outcome), outcome)
        return None

    def adopt(self, index: int, source: RunRecord,
              outcome: Optional[Dict[str, Any]] = None) -> bool:
        """Finish point ``index`` from a record computed elsewhere (a
        cache or store hit, or a deduplicated leader's result and the
        ``outcome`` behind it); ``False`` if it was already final."""
        record = self.records[index]
        if record.status != "pending":
            return False
        self._finish(record, source, outcome)
        record.cached = True
        return True

    def result_of(self, outcome: Dict[str, Any]) -> RunRecord:
        """The final record ``outcome`` makes of its point, detached
        from this execution's records."""
        skeleton = self.records[outcome["index"]]
        return RunRecord(
            index=skeleton.index, params=skeleton.params,
            seed=skeleton.seed, status=outcome.get("status", "failed"),
            metrics=dict(outcome.get("metrics") or {}),
            error=outcome.get("error"),
            failure_kind=outcome.get("failure_kind"),
            wall_time=float(outcome.get("wall_time") or 0.0),
            attempts=outcome["attempt"],
            metrics_telemetry=outcome.get("metrics_telemetry"))

    def _finish(self, record: RunRecord, source: RunRecord,
                outcome: Optional[Dict[str, Any]]) -> None:
        record.status = source.status
        record.metrics = dict(source.metrics or {})
        record.error = source.error
        record.failure_kind = source.failure_kind
        record.attempts = source.attempts
        record.wall_time += source.wall_time
        record.metrics_telemetry = source.metrics_telemetry
        if record.status == "failed":
            self._write_failure(record, outcome or {})

    @staticmethod
    def lost(tasks: List[RunTask],
             exc: BaseException) -> List[Dict[str, Any]]:
        """Outcomes for ``tasks`` whose executor died before answering
        (e.g. a worker process killed mid-chunk): retryable failures."""
        return [
            {"index": index, "attempt": attempt, "status": "failed",
             "metrics": {},
             "error": f"worker pool failure: "
                      f"{type(exc).__name__}: {exc}",
             "failure_kind": "retryable", "diagnostic": None,
             "metrics_telemetry": None, "wall_time": 0.0}
            for index, _params, attempt in tasks]

    def _write_failure(self, record: RunRecord,
                       outcome: Dict[str, Any]) -> None:
        """Write a failed point's postmortem under ``failures_dir``:
        ``run_NNNNN.diagnostic.json`` always, plus
        ``run_NNNNN.checkpoint.pkl`` when an in-run checkpoint exists."""
        if self.failures_dir is None:
            return
        self.failures_dir.mkdir(parents=True, exist_ok=True)
        stem = f"run_{record.index:05d}"
        diagnostic = dict(outcome.get("diagnostic")
                          or {"message": record.error})
        diagnostic.setdefault("failure_kind", record.failure_kind)
        diagnostic.setdefault("params", record.params)
        diagnostic.setdefault("attempts", record.attempts)
        path = self.failures_dir / f"{stem}.diagnostic.json"
        path.write_text(
            json.dumps(diagnostic, indent=2, sort_keys=True,
                       default=str) + "\n",
            encoding="utf-8",
        )
        checkpoint = outcome.get("checkpoint")
        if checkpoint is not None:
            (self.failures_dir / f"{stem}.checkpoint.pkl").write_bytes(
                checkpoint)
