"""Static analysis of one TDF cluster, shared by elaboration and the
static verifier.

:class:`TdfAnalysis` runs the cluster elaboration pipeline over the
shared dataflow analysis of :mod:`repro.sdf.analysis`:

1. **Port checks** — every TDF port is bound, has rate >= 1 and delay
   >= 0; every signal has a writer.
2. **Rate analysis** — the balance equations over port rates yield each
   module's repetition count per cluster period.
3. **Timestep propagation** — user-requested module/port timesteps are
   converted into cluster-period constraints (``period = repetitions *
   module_timestep``; ``module_timestep = rate * port_timestep``); all
   constraints must agree, and every derived timestep must be an integer
   number of time ticks.
4. **Static scheduling** — a PASS is constructed by symbolic execution
   honouring port delays as initial tokens; failure means deadlock.

Every problem is recorded as a :class:`Finding` instead of raised, and
a stage runs whenever its inputs exist, so one broken stage does not
hide the findings of the others.
:meth:`TdfCluster.elaborate <repro.tdf.cluster.TdfCluster.elaborate>`
raises the first finding; the verifier reports all of them.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..core.errors import ElaborationError, SchedulingError
from ..core.time import SimTime
from ..sdf.analysis import simulate, solve_balance, zero_delay_cycles
from .module import TdfDeIn, TdfModule
from .signal import TdfSignal


class Finding(NamedTuple):
    """One problem of a cluster."""

    #: The verifier rule reporting it (``TDF001`` ... ``TDF010``).
    rule: str
    location: str
    #: The exception elaboration raises for it.
    error: Exception
    #: Structured detail for the verifier diagnostic.
    data: dict


class TdfAnalysis:
    """Rates, timesteps and schedule of one TDF cluster."""

    def __init__(self, name: str, modules: list[TdfModule]):
        self.name = name
        self.modules = modules
        self.signals: list[TdfSignal] = []
        self.de_inputs: list = []
        self.de_outputs: list = []
        self.findings: list[Finding] = []
        #: (writer_module, w_rate, reader_module, r_rate, delay_tokens)
        #: over fully bound, positively rated connections only.
        self.edges: list[tuple] = []
        #: repetition count per module; empty when rates conflict.
        self.repetitions: dict[TdfModule, int] = {}
        #: resolved cluster period in ticks; None when unknown.
        self.period_ticks: Optional[int] = None
        #: resolved timestep ticks per module with a divisible period.
        self.module_timestep_ticks: dict[TdfModule, int] = {}
        #: the one-period schedule as (module, run_length, fusable) runs.
        self.runs: list = []
        self._check_ports()
        balance = solve_balance(modules, self.edges)
        for module, _ratio, _implied in balance.conflicts:
            self._find("TDF004", module.full_name(), SchedulingError(
                f"TDF cluster {name!r} is rate-inconsistent at "
                f"{module.full_name()!r}"))
        self.repetitions = balance.repetitions
        if not balance.conflicts:
            self._propagate_timesteps()
            self._schedule()

    def _find(self, rule: str, location: str, error: Exception,
              **data) -> None:
        self.findings.append(Finding(rule, location, error, data))

    # -- stage 1: ports and signals --------------------------------------------

    def _check_ports(self) -> None:
        """Port, signal and converter checks; builds the edge list."""
        seen: set[int] = set()
        for module in self.modules:
            for port in module.tdf_ports():
                name = port.full_name()
                if port.signal is None:
                    self._find("TDF001", name, ElaborationError(
                        f"TDF port {name!r} is unbound"))
                elif id(port.signal) not in seen:
                    seen.add(id(port.signal))
                    self.signals.append(port.signal)
                if port.rate < 1:
                    self._find("TDF010", name, ElaborationError(
                        f"port {name!r}: rate {port.rate} must be >= 1"))
                if port.delay < 0:
                    self._find("TDF010", name, ElaborationError(
                        f"port {name!r}: delay {port.delay} must be "
                        f">= 0"))
            for converter in module.converter_ports():
                if isinstance(converter, TdfDeIn):
                    self.de_inputs.append(converter)
                else:
                    self.de_outputs.append(converter)
        for signal in self.signals:
            writer = signal.writer
            if writer is None:
                self._find("TDF002", signal.name, ElaborationError(
                    f"TDF signal {signal.name!r} has no writer"),
                    readers=sorted(r.full_name() for r in signal.readers))
                continue
            if writer.module is None or writer.rate < 1:
                continue
            for reader in signal.readers:
                if reader.module is not None and reader.rate >= 1:
                    self.edges.append((
                        writer.module, writer.rate, reader.module,
                        reader.rate, writer.delay + reader.delay))

    # -- stage 2: timestep propagation ---------------------------------------

    def _propagate_timesteps(self) -> None:
        period_ticks: Optional[int] = None
        origin = ""
        conflicts = False
        for module in self.modules:
            constraints: list[tuple[int, str]] = []
            if module.requested_timestep is not None:
                constraints.append((module.requested_timestep.ticks,
                                    module.full_name()))
            for port in module.tdf_ports():
                if port.requested_timestep is not None and port.rate >= 1:
                    constraints.append((
                        port.requested_timestep.ticks * port.rate,
                        port.full_name(),
                    ))
            for module_ticks, name in constraints:
                candidate = module_ticks * self.repetitions[module]
                if period_ticks is None:
                    period_ticks, origin = candidate, name
                elif period_ticks != candidate:
                    conflicts = True
                    self._find("TDF006", name, ElaborationError(
                        f"inconsistent timesteps in cluster "
                        f"{self.name!r}: {origin!r} implies period "
                        f"{SimTime.from_ticks(period_ticks)}, {name!r} "
                        f"implies {SimTime.from_ticks(candidate)}"))
        if period_ticks is None:
            members = sorted(m.full_name() for m in self.modules)
            self._find("TDF005", members[0], ElaborationError(
                f"no timestep assigned anywhere in TDF cluster "
                f"{self.name!r}; call set_timestep() on at least one "
                "module or port"), members=members)
            return
        if conflicts:
            return
        self.period_ticks = period_ticks
        for module in self.modules:
            reps = self.repetitions[module]
            if period_ticks % reps:
                self._find("TDF007", module.full_name(), ElaborationError(
                    f"cluster period {SimTime.from_ticks(period_ticks)} "
                    f"is not divisible by {module.full_name()!r}'s "
                    f"{reps} activations"))
                continue
            module_ticks = period_ticks // reps
            self.module_timestep_ticks[module] = module_ticks
            for port in module.tdf_ports():
                if port.rate >= 1 and module_ticks % port.rate:
                    self._find("TDF007", port.full_name(), ElaborationError(
                        f"module timestep "
                        f"{SimTime.from_ticks(module_ticks)} of "
                        f"{module.full_name()!r} is not divisible by "
                        f"port rate {port.rate}"))

    # -- stage 3: schedulability ---------------------------------------------

    def _schedule(self) -> None:
        run = simulate(self.modules, self.edges, self.repetitions)
        if not run.stuck:
            self.runs = run.runs
            return
        stuck = [m.full_name() for m in run.stuck]
        cycles = zero_delay_cycles(
            [m.full_name() for m in self.modules],
            [(w.full_name(), w_rate, r.full_name(), r_rate, delay)
             for w, w_rate, r, r_rate, delay in self.edges])
        self._find("TDF008", stuck[0], SchedulingError(
            f"TDF cluster {self.name!r} deadlocks (insufficient delays "
            f"on a feedback loop); stuck modules: {stuck}"),
            stuck=stuck, cycles=cycles)

    # -- derived helpers ------------------------------------------------------

    def batching_pinned_by(self) -> list[TdfModule]:
        """Modules that pin the whole cluster to one-period-per-wake
        execution (``batch_unsafe`` or raw DE coupling) even though the
        cluster has no converter ports of its own."""
        if self.de_inputs or self.de_outputs:
            return []
        return [m for m in self.modules
                if m.batch_unsafe or m.de_coupled()]
