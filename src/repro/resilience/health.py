"""Numerical health guards: runtime checks and structured diagnostics.

The paper's robustness objective demands solvers that fail *diagnosably*:
a mixed-signal run that dies with ``SolverError("NaN")`` after hours of
simulation is useless at campaign scale.  Two pieces implement the
guard rail:

* :class:`HealthMonitor` — a lightweight observer attached to a solver.
  It validates every accepted state vector (NaN / Inf / overflow),
  keeps a rolling residual history, and estimates iteration-matrix
  condition numbers on demand.
* :class:`DiagnosticReport` — the structured postmortem attached to an
  enriched :class:`~repro.core.errors.SolverError` (as its
  ``diagnostic`` attribute): failure time, state snapshot, residual
  trace, attempted fallback tiers, and the chain of underlying errors.
  Reports serialize to JSON so campaign workers can persist them as
  artifacts (see :mod:`repro.campaign.core`).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.errors import SolverError


@dataclass
class DiagnosticReport:
    """Structured description of a numerical failure (or recovery)."""

    message: str
    time: Optional[float] = None
    state: Optional[List[float]] = None
    residual_trace: List[float] = field(default_factory=list)
    condition_estimate: Optional[float] = None
    tiers_attempted: List[str] = field(default_factory=list)
    tier_counts: Dict[str, int] = field(default_factory=dict)
    error_chain: List[str] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "message": self.message,
            "time": self.time,
            "state": self.state,
            "residual_trace": [float(r) for r in self.residual_trace],
            "condition_estimate": self.condition_estimate,
            "tiers_attempted": list(self.tiers_attempted),
            "tier_counts": dict(self.tier_counts),
            "error_chain": list(self.error_chain),
            "context": dict(self.context),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=_jsonify)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DiagnosticReport":
        return cls(
            message=data.get("message", ""),
            time=data.get("time"),
            state=data.get("state"),
            residual_trace=list(data.get("residual_trace") or []),
            condition_estimate=data.get("condition_estimate"),
            tiers_attempted=list(data.get("tiers_attempted") or []),
            tier_counts=dict(data.get("tier_counts") or {}),
            error_chain=list(data.get("error_chain") or []),
            context=dict(data.get("context") or {}),
        )


def _jsonify(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return repr(value)


def attach_diagnostic(error: SolverError,
                      report: DiagnosticReport) -> SolverError:
    """Attach ``report`` to ``error`` under the ``diagnostic`` attribute."""
    error.diagnostic = report
    return error


def diagnostic_of(error: BaseException) -> Optional[DiagnosticReport]:
    """The :class:`DiagnosticReport` attached to ``error``, if any."""
    report = getattr(error, "diagnostic", None)
    return report if isinstance(report, DiagnosticReport) else None


class HealthError(SolverError):
    """A health guard rejected a state vector (NaN/Inf/overflow)."""


class HealthMonitor:
    """Validates solver state and accumulates numerical health history.

    Solvers call :meth:`after_step` on every accepted step (the built-in
    transient solvers do so when a monitor is installed);
    :class:`~repro.resilience.fallback.ResilientTransientSolver`
    additionally validates the state returned by every synchronization
    interval.  ``overflow_limit`` flags states that are still finite but
    have clearly left the physical range — the precursor of a NaN blow-up
    one step later.
    """

    #: Telemetry hub (:mod:`repro.observe`), installed alongside the
    #: resilient wrapper; ``checked_steps``/``violations`` remain the
    #: shim API either way.
    telemetry = None

    def __init__(self, overflow_limit: float = 1e100,
                 history: int = 64):
        self.overflow_limit = float(overflow_limit)
        self.residual_history: deque = deque(maxlen=history)
        self.condition_history: deque = deque(maxlen=history)
        self.checked_steps = 0
        self.violations = 0

    # -- recording ----------------------------------------------------------

    def record_residual(self, norm: float) -> None:
        self.residual_history.append(float(norm))

    def record_condition(self, estimate: float) -> None:
        self.condition_history.append(float(estimate))

    def estimate_condition(self, matrix: np.ndarray) -> float:
        """1-norm condition estimate of ``matrix`` (recorded as a side
        effect); returns ``inf`` for singular / non-finite matrices."""
        matrix = np.asarray(matrix, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(matrix)):
                estimate = np.inf
            else:
                try:
                    estimate = float(np.linalg.cond(matrix, 1))
                except np.linalg.LinAlgError:
                    estimate = np.inf
        self.record_condition(estimate)
        return estimate

    # -- guarding -----------------------------------------------------------

    def check_state(self, x: np.ndarray, t: Optional[float] = None,
                    context: str = "") -> None:
        """Raise :class:`HealthError` if ``x`` is NaN/Inf or overflown."""
        self.checked_steps += 1
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = bool(np.all(np.isfinite(x)))
            magnitude = float(np.max(np.abs(x))) if finite and x.size \
                else 0.0
        if finite and magnitude <= self.overflow_limit:
            return
        self.violations += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("health.violations").inc()
            self.telemetry.tracer.instant(
                "health.violation", track="resilience", t=t,
                context=context)
        kind = "non-finite values (NaN/Inf)" if not finite else (
            f"overflow beyond {self.overflow_limit:.1e} "
            f"(|x| = {magnitude:.3e})"
        )
        where = f" at t={t:.6e}" if t is not None else ""
        suffix = f" [{context}]" if context else ""
        error = HealthError(
            f"health guard: state vector has {kind}{where}{suffix}"
        )
        attach_diagnostic(error, self.report(
            message=str(error), time=t,
            state=[float(v) for v in x] if x.size <= 1024 else None,
        ))
        raise error

    def after_step(self, t: float, x: np.ndarray) -> None:
        """Per-accepted-step hook installed into cooperating solvers."""
        self.check_state(x, t, context="accepted step")

    # -- reporting ----------------------------------------------------------

    def report(self, message: str, time: Optional[float] = None,
               state: Optional[List[float]] = None,
               **context: Any) -> DiagnosticReport:
        """Build a :class:`DiagnosticReport` seeded with this monitor's
        accumulated residual / condition history."""
        condition = (float(self.condition_history[-1])
                     if self.condition_history else None)
        return DiagnosticReport(
            message=message,
            time=time,
            state=state,
            residual_trace=list(self.residual_history),
            condition_estimate=condition,
            context=dict(context),
        )
