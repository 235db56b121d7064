"""TDF cluster discovery, elaboration, and runtime execution.

A *cluster* is a maximal set of TDF modules connected through TDF
signals.  Elaboration performs, in order:

1. **Static analysis** — :class:`~repro.tdf.analysis.TdfAnalysis`
   checks ports, solves the balance equations, propagates timesteps and
   synthesizes the static schedule over the shared dataflow analysis of
   :mod:`repro.sdf.analysis`.  Elaboration raises the analysis's first
   finding; the static verifier reports every finding of the same
   analysis, so the two cannot disagree.
2. **Consistent initialization** — derived timesteps are applied,
   signals are primed with delay samples and every module's
   ``initialize`` hook runs before time 0.

At runtime each cluster is one kernel thread waking once per cluster
period: it samples the DE converter inputs, executes a full schedule
iteration (modules may run *ahead* of kernel time within the period),
flushes converter outputs (replayed at exact sample times), and sleeps.

**Block execution** (the default) compiles the static schedule into
run-length-encoded entries — consecutive activations of one module fuse
into a single ``processing_block(n)`` call when the module opts in —
and, for clusters with no DE coupling at all, batches up to
``tdf_batch`` periods into one super-iteration per wake-up.  Both
transformations are observationally identical to scalar execution:
dataflow determinism makes the sample streams independent of firing
order, and batching is clamped to the current ``run()`` boundary so the
number of executed periods matches the scalar wake-up count exactly.
"""

from __future__ import annotations

import time as _time
from typing import Optional

from ..core.errors import SynchronizationError
from ..core.process import THREAD, Process
from ..core.time import SimTime
from ..sdf.analysis import simulate
from .analysis import TdfAnalysis
from .module import TdfDeIn, TdfDeOut, TdfModule


class TdfRegistry:
    """Collects TDF modules during elaboration; builds clusters at the end."""

    def __init__(self):
        self.modules: list[TdfModule] = []
        self.clusters: list[TdfCluster] = []

    def add_module(self, module: TdfModule) -> None:
        self.modules.append(module)

    def finalize(self, simulator) -> None:
        for module in self.modules:
            module.set_attributes()
        clusters = _discover_clusters(self.modules)
        for k, members in enumerate(clusters):
            cluster = TdfCluster(
                f"cluster{k}", members,
                block_mode=getattr(simulator, "tdf_block", True),
                batch=getattr(simulator, "tdf_batch", 16),
                compact_every=getattr(simulator, "tdf_compact_every", 64),
                telemetry=getattr(simulator, "telemetry", None),
            )
            cluster.elaborate()
            cluster.install(simulator.kernel)
            self.clusters.append(cluster)


def _discover_clusters(modules: list[TdfModule]) -> list[list[TdfModule]]:
    """Union-find over modules sharing TDF signals."""
    parent: dict[int, int] = {id(m): id(m) for m in modules}
    by_id = {id(m): m for m in modules}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    signals = {}
    for module in modules:
        for port in module.tdf_ports():
            if port.signal is not None:
                signals.setdefault(id(port.signal), []).append(module)
    for members in signals.values():
        for other in members[1:]:
            union(id(members[0]), id(other))
    groups: dict[int, list[TdfModule]] = {}
    for module in modules:
        groups.setdefault(find(id(module)), []).append(module)
    return list(groups.values())


class TdfCluster:
    """One synchronized group of TDF modules."""

    #: the static analysis elaborate() acted on.
    _analysis: TdfAnalysis

    def __init__(self, name: str, modules: list[TdfModule],
                 block_mode: bool = True, batch: int = 16,
                 compact_every: int = 64, telemetry=None):
        self.name = name
        self.modules = modules
        #: Telemetry hub (:mod:`repro.observe`); metrics are pre-bound
        #: here so the wake-up hot path never resolves names.  ``None``
        #: keeps ``execute_periods`` on a single ``is None`` test.
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            self._m_seconds = metrics.counter("moc.tdf.seconds")
            self._m_periods = metrics.counter("tdf.periods", cluster=name)
            self._m_activations = metrics.counter(
                "tdf.activations", cluster=name)
            self._m_batch = metrics.histogram(
                "tdf.batch_periods", cluster=name)
            self._m_occupancy = metrics.histogram(
                "tdf.buffer_occupancy", cluster=name)
            self._m_sync_in = metrics.counter("sync.de_to_tdf.samples")
            self._m_sync_out = metrics.counter("sync.tdf_to_de.samples")
            #: per-module wall clock and activation counts, keyed by
            #: module: (seconds, activations, block_activations).
            self._m_modules = {
                module: tuple(
                    metrics.counter(f"tdf.module.{kind}",
                                    module=module.full_name())
                    for kind in ("seconds", "activations",
                                 "block_activations"))
                for module in modules
            }
        self.period: Optional[SimTime] = None
        self.repetitions: dict[int, int] = {}
        self.schedule: list[TdfModule] = []
        self.epoch_ticks = 0
        self.period_count = 0
        self.block_mode = block_mode
        self.batch = max(1, int(batch)) if block_mode else 1
        self.compact_every = max(1, int(compact_every))
        self._next_compact = self.compact_every
        #: compiled schedules: periods-per-iteration -> RLE entry list.
        self._entry_cache: dict[int, list] = {}
        #: decided during elaborate(): may this cluster batch periods?
        self._batch_safe = False
        #: the kernel this cluster was installed on (set by install()).
        self._kernel = None
        self._signals: list = []
        self._de_inputs: list[TdfDeIn] = []
        self._de_outputs: list[TdfDeOut] = []
        #: set by restore_state(): the period at checkpoint time already
        #: executed before the snapshot, so the resumed driver must sleep
        #: one period before its first execute_period().
        self._skip_first_period = False

    # -- elaboration ------------------------------------------------------------

    def elaborate(self) -> None:
        """Run the :class:`TdfAnalysis`, raise its first finding, then
        apply the derived timesteps and initialize."""
        analysis = TdfAnalysis(self.name, self.modules)
        if analysis.findings:
            raise analysis.findings[0].error
        assert analysis.period_ticks is not None
        self._analysis = analysis
        self._signals = analysis.signals
        self._de_inputs = analysis.de_inputs
        self._de_outputs = analysis.de_outputs
        self.repetitions = {
            id(m): n for m, n in analysis.repetitions.items()
        }
        self.period = SimTime.from_ticks(analysis.period_ticks)
        for module in self.modules:
            module.timestep = SimTime.from_ticks(
                analysis.module_timestep_ticks[module])
            for port in module.tdf_ports():
                port.timestep = SimTime.from_ticks(
                    module.timestep.ticks // port.rate)
        self.schedule = [m for m, count, _fusable in analysis.runs
                         for _ in range(count)]
        self._batch_safe = (
            self.batch > 1
            and not self._de_inputs
            and not self._de_outputs
            and not any(m.batch_unsafe or m.de_coupled()
                        for m in self.modules)
        )
        for signal in self._signals:
            signal.prime()
        for module in self.modules:
            module._cluster = self
            module._telemetry = self.telemetry
        for module in self.modules:
            module.initialize()

    def _entries_for(self, periods: int) -> list:
        """Compiled schedule for ``periods``: (module, count, use_block).

        ``use_block`` routes the run through ``processing_block``; runs
        of modules that do not opt in (or single activations, where the
        scalar call is cheaper, or runs whose inputs are not fully
        available up front) execute sample-at-a-time.
        """
        cached = self._entry_cache.get(periods)
        if cached is None:
            analysis = self._analysis
            cached = [
                (module, count,
                 self.block_mode and count > 1 and fusable
                 and module.supports_block())
                for module, count, fusable in simulate(
                    self.modules, analysis.edges, analysis.repetitions,
                    periods).runs
            ]
            self._entry_cache[periods] = cached
        return cached

    # -- runtime ----------------------------------------------------------------

    def install(self, kernel) -> None:
        """Register the cluster driver thread and converter writers."""
        self._kernel = kernel
        for converter in self._de_outputs:
            converter.make_writer_thread(kernel)
        process = Process(
            f"tdf.{self.name}.driver", THREAD, self._drive,
        )
        kernel.register_process(process)

    def _drive(self):
        assert self.period is not None
        if self._skip_first_period:
            self._skip_first_period = False
            # Resume from a checkpoint: period_count periods already ran
            # before the snapshot, so sleep until the next period start.
            resume = self.period_count * self.period.ticks
            yield SimTime.from_ticks(
                max(resume - self._kernel.now_ticks, 0)
            )
        while True:
            n = self._periods_this_wake()
            self.execute_periods(n)
            yield SimTime.from_ticks(n * self.period.ticks)

    def _periods_this_wake(self) -> int:
        """How many periods to batch into the current wake-up.

        Batching runs the cluster *ahead* of kernel time, which is only
        observationally safe with zero DE coupling; the count is clamped
        to the run() boundary so exactly as many periods execute per
        run as with scalar one-period-per-wake pacing (a wake landing
        exactly on the boundary still executes, hence the ``+ 1``).
        """
        if not self._batch_safe:
            return 1
        limit = self._kernel.run_limit_ticks
        if limit is None:
            return 1  # unbounded run: pace period-by-period
        avail = (limit - self._kernel.now_ticks) // self.period.ticks + 1
        # Never batch across a compaction boundary: compacting at the
        # exact same period counts as scalar mode keeps checkpoint
        # snapshots (sample buffers + offsets) bit-identical.
        avail = min(avail, self._next_compact - self.period_count)
        return max(1, min(self.batch, avail))

    def execute_period(self) -> None:
        """Run exactly one cluster period (one full static schedule)."""
        self.execute_periods(1)

    def execute_periods(self, n: int) -> None:
        """Run ``n`` cluster periods through the compiled schedule."""
        telemetry = self.telemetry
        if telemetry is not None:
            start = _time.perf_counter()
        for converter in self._de_inputs:
            converter.sample()
        base = self.period_count * self.period.ticks
        self.epoch_ticks = 0  # local time is measured from t=0
        if telemetry is None:
            for module, count, use_block in self._entries_for(n):
                if use_block:
                    module._activate_block(count)
                else:
                    for _ in range(count):
                        module._activate()
        else:
            clock = _time.perf_counter
            counters = self._m_modules
            for module, count, use_block in self._entries_for(n):
                seconds, activations, blocks = counters[module]
                entry_start = clock()
                if use_block:
                    module._activate_block(count)
                else:
                    for _ in range(count):
                        module._activate()
                seconds.inc(clock() - entry_start)
                activations.inc(count)
                if use_block:
                    blocks.inc(count)
        if telemetry is not None and self._de_outputs:
            self._m_sync_out.inc(
                sum(len(c._queue) for c in self._de_outputs))
        for converter in self._de_outputs:
            converter.flush(base)
        self.period_count += n
        if telemetry is not None:
            elapsed = _time.perf_counter() - start
            self._m_seconds.inc(elapsed)
            self._m_periods.inc(n)
            self._m_activations.inc(n * len(self.schedule))
            self._m_batch.observe(n)
            if self._de_inputs:
                self._m_sync_in.inc(len(self._de_inputs))
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.complete(
                    "cluster.activate", start, elapsed,
                    track=f"tdf.{self.name}",
                    attrs={"moc": "tdf", "periods": n,
                           "t_ticks": base})
        # Amortized housekeeping: dropping consumed samples every period
        # would dominate the per-sample cost; compacting every
        # ``compact_every`` periods keeps the buffers bounded at
        # negligible overhead.
        if self.period_count >= self._next_compact:
            self._compact()
            self._next_compact = self.compact_every * (
                self.period_count // self.compact_every + 1
            )

    def _compact(self) -> None:
        if self.telemetry is not None:
            for signal in self._signals:
                self._m_occupancy.observe(
                    signal.write_head - signal._offset)
        for signal in self._signals:
            if signal.readers:
                needed = min(r.next_needed() for r in signal.readers)
                signal.compact(needed)
            else:
                signal.compact(signal.write_head)

    # -- checkpoint support ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Picklable snapshot of the cluster's runtime state."""
        return {
            "name": self.name,
            "period_count": self.period_count,
            "signals": [signal.snapshot() for signal in self._signals],
            "modules": [
                {
                    "name": module.full_name(),
                    "activation_index": module._activation_index,
                    "activation_count": module.activation_count,
                    "extra": module.checkpoint_state(),
                }
                for module in self.modules
            ],
        }

    def restore_state(self, data: dict) -> None:
        """Reinstall a :meth:`checkpoint_state` snapshot.

        The receiving cluster must be freshly elaborated from the same
        model factory: signals and modules are matched positionally (the
        elaboration order is deterministic) with module names checked.
        """
        if (len(data["signals"]) != len(self._signals)
                or len(data["modules"]) != len(self.modules)):
            raise SynchronizationError(
                f"checkpoint does not match cluster {self.name!r} "
                "(different signal/module counts — was the model "
                "rebuilt from the same factory?)"
            )
        self.period_count = int(data["period_count"])
        self._next_compact = self.compact_every * (
            self.period_count // self.compact_every + 1
        )
        for signal, snap in zip(self._signals, data["signals"]):
            signal.restore(snap)
        for module, snap in zip(self.modules, data["modules"]):
            if module.full_name() != snap["name"]:
                raise SynchronizationError(
                    f"checkpoint module {snap['name']!r} does not match "
                    f"{module.full_name()!r} in cluster {self.name!r}"
                )
            module._activation_index = int(snap["activation_index"])
            module.activation_count = int(snap["activation_count"])
            module.restore_state(snap["extra"])
        self._skip_first_period = True
