"""Parallel campaign execution, in process.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.Campaign`
into a :class:`~repro.campaign.records.CampaignResults` by driving the
shared execution core (:mod:`repro.campaign.core`) — the same seeding,
pre-flight, retry, classification and failure-artifact rules the
campaign service applies — over a local process pool:

* **deterministic seeding** — run ``k`` receives the ``k``-th child of
  ``SeedSequence(root_seed)`` (as a 64-bit int inside its params), so
  any execution order, worker count, or cache state produces
  bit-identical metrics;
* **parallelism** — runs fan out over a
  ``concurrent.futures.ProcessPoolExecutor`` in chunks (amortizing
  process round-trips); ``workers <= 1`` executes inline through the
  *same* code path, which is what makes the determinism guarantee
  testable;
* **robustness** — each run is wrapped in a per-run wall-clock timeout
  (``SIGALRM``-based, POSIX) and failing runs are retried once before
  being recorded as ``status="failed"``; a worker process that dies
  fails only the chunks it was running (retryably), so one crashing
  point never kills the campaign;
* **caching** — finished points are stored in a content-addressed
  :class:`~repro.campaign.cache.ResultCache`; re-running a campaign
  executes only changed points.

Worker processes receive only the campaign's *factory callables* and
plain parameter dicts — never a live :class:`~repro.core.Simulator` —
so every worker elaborates its own kernel from scratch (the
``Kernel._current`` process-global makes sharing elaborated state
across processes unsafe by construction; ``Simulator.__reduce__``
enforces this).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..observe import Telemetry
from .cache import ResultCache
from .core import (
    CampaignExecution,
    RunTarget,
    RunTask,
    _execute_chunk,
    _fork_context,
    run_target,
)
from .core import RunTimeout, _deadline, classify_failure  # noqa: F401  (re-exports)
from .records import CampaignResults, RunRecord
from .spec import Campaign

logger = logging.getLogger(__name__)


class CampaignRunner:
    """Executes a :class:`Campaign`; see the module docstring.

    Parameters
    ----------
    campaign:
        The campaign to run.
    workers:
        Process count; ``<= 1`` runs inline (serially) in this process.
    cache_dir:
        Directory for the content-addressed result cache; ``None``
        disables caching (every point executes).
    timeout:
        Per-run wall-clock budget in seconds (``None``: unlimited).
    retries:
        How many times a failed run is re-attempted (default 1: the
        "retry once" policy).
    chunk_size:
        Runs per worker task; ``None`` picks ``ceil(n / (4·workers))``
        so each worker sees ~4 chunks (load balance vs. dispatch cost).
    out_dir:
        If given, ``records.jsonl`` is written there after the run
        (and, unless ``cache_dir`` is set or caching disabled, the
        cache lives in ``out_dir/cache``).
    verify:
        Static pre-flight verification of every pending point (see
        :meth:`~repro.campaign.core.CampaignExecution.preflight`): a
        ``build=`` point's model is built in the parent process and
        statically checked; a ``run=`` campaign's callable gets the
        behavioral CODE lint once.  Rejected points are recorded as
        ``status="failed"`` / ``failure_kind="static"`` without ever
        forking a worker.  ``"auto"`` (default) and ``"on"`` enable
        it; ``"off"`` disables it.
    """

    def __init__(self, campaign: Campaign, workers: int = 1,
                 cache_dir=None, timeout: Optional[float] = None,
                 retries: int = 1, chunk_size: Optional[int] = None,
                 out_dir=None, use_cache: bool = True,
                 progress: Optional[Callable[[RunRecord], None]] = None,
                 checkpoint_every=None, verify: str = "auto",
                 observe: Any = None):
        self.campaign = campaign
        #: Campaign-level telemetry hub (``Telemetry.coerce`` rules).
        #: Serial execution threads it through every point, so the
        #: exported trace carries per-point simulation spans; process
        #: pools record dispatch spans and stats in the parent (worker
        #: traces cross process boundaries via the campaign *service*,
        #: not the in-process runner).
        self.telemetry = Telemetry.coerce(observe)
        self.workers = max(1, int(workers))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.chunk_size = chunk_size
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.progress = progress
        #: SimTime interval for in-run checkpoints (build-style
        #: campaigns only); a failed point's last checkpoint is then
        #: persisted next to its diagnostic under ``out_dir/failures``.
        self.checkpoint_every = checkpoint_every
        if cache_dir is None and use_cache and self.out_dir is not None:
            cache_dir = self.out_dir / "cache"
        self.cache = (ResultCache(cache_dir)
                      if use_cache and cache_dir is not None else None)
        if verify not in ("auto", "on", "off"):
            raise ValueError(
                f"verify must be 'auto', 'on', or 'off'; got "
                f"{verify!r}")
        self.verify = verify
        self.stats: Dict[str, int] = {}

    def _report(self, record: RunRecord) -> None:
        if self.progress is not None:
            self.progress(record)

    def run(self) -> CampaignResults:
        execution = CampaignExecution(
            self.campaign, self.retries,
            self.out_dir / "failures" if self.out_dir is not None
            else None, self.verify)
        records = execution.records

        # 1. serve cache hits
        pending: List[RunTask] = []
        cached = 0
        for record in records:
            hit = (self.cache.get(execution.keys[record.index])
                   if self.cache is not None else None)
            if hit is not None and hit.status == "ok":
                execution.adopt(record.index, hit)
                cached += 1
                self._report(record)
            else:
                pending.append(execution.task(record.index))

        # 2. static pre-flight: reject broken models without forking
        pending, rejected = execution.preflight(pending)
        for task, _ in rejected:
            self._report(records[task[0]])

        # 3. execute misses, retrying failures up to ``retries`` times
        executed = 0
        retried = 0
        target = run_target(self.campaign, self.checkpoint_every)
        while pending:
            outcomes = self._dispatch(target, pending)
            executed += len(outcomes)
            retry: List[RunTask] = []
            for outcome in outcomes:
                task = execution.settle(outcome)
                if task is not None:
                    retry.append(task)
                else:
                    self._report(records[outcome["index"]])
            retried += len(retry)
            pending = retry

        # 4. persist
        for record in records:
            if record.status == "ok" and not record.cached \
                    and self.cache is not None:
                self.cache.put(execution.keys[record.index], record)

        self.stats = {
            "total": len(records),
            "cached": cached,
            "executed": executed,
            "retried": retried,
            "static": len(rejected),
            "failed": sum(1 for r in records if r.status == "failed"),
        }
        if self.telemetry is not None:
            for kind, value in self.stats.items():
                self.telemetry.metrics.counter(
                    "campaign.points", kind=kind).value = float(value)
        results = CampaignResults(records)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            results.write_jsonl(self.out_dir / "records.jsonl")
        return results

    def _dispatch(self, target: RunTarget, tasks: List[RunTask]
                  ) -> List[Dict[str, Any]]:
        """Run ``tasks``, chunked, serially or on the process pool; a
        chunk whose worker process died yields executor-lost outcomes."""
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = max(1, -(-len(tasks) // (4 * self.workers)))
        chunks = [tasks[i:i + chunk_size]
                  for i in range(0, len(tasks), chunk_size)]
        hub = self.telemetry
        if self.workers <= 1:
            outcomes: List[Dict[str, Any]] = []
            for chunk in chunks:
                outcomes.extend(_execute_chunk(target, chunk,
                                               self.timeout, hub))
            return outcomes
        dispatch_span = (hub.tracer.span("campaign.dispatch",
                                         track="campaign",
                                         chunks=len(chunks),
                                         tasks=len(tasks))
                         if hub is not None else None)
        with ProcessPoolExecutor(max_workers=self.workers,
                                 mp_context=_fork_context()) as pool:
            futures = [pool.submit(_execute_chunk, target, chunk,
                                   self.timeout)
                       for chunk in chunks]
            outcomes = []
            for chunk, future in zip(chunks, futures):
                try:
                    outcomes.extend(future.result())
                except BrokenProcessPool as exc:
                    logger.warning("a campaign worker process died; "
                                   "%d point(s) lost", len(chunk),
                                   exc_info=exc)
                    outcomes.extend(CampaignExecution.lost(chunk, exc))
        if dispatch_span is not None:
            dispatch_span.close()
        return outcomes


def run_campaign(campaign: Campaign, **kwargs) -> CampaignResults:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(campaign, **kwargs).run()
