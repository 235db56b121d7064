"""Timed-dataflow cluster checks (TDF0xx).

The error rules report the findings of each cluster's
:class:`~repro.tdf.analysis.TdfAnalysis` — the analysis cluster
elaboration raises its first finding from, built on the shared dataflow
analysis of :mod:`repro.sdf.analysis`.  A diagnostic's message is the
exact error elaboration would raise; the verifier reports every finding
rather than the first.
"""

from __future__ import annotations

from typing import Iterator

from .context import VerifyContext
from .diagnostics import Diagnostic
from .registry import rule


def _findings(ctx: VerifyContext, rule_id: str,
              hint: str) -> Iterator[Diagnostic]:
    for cluster in ctx.clusters:
        for finding in cluster.findings:
            if finding.rule == rule_id:
                yield ctx.diag(rule_id, "error", finding.location,
                               str(finding.error), hint=hint,
                               **finding.data)


@rule("TDF001", domain="tdf", severity="error")
def unbound_tdf_port(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF port is not bound to any TDF signal."""
    return _findings(
        ctx, "TDF001",
        hint="bind it to a TdfSignal shared with its peer module")


@rule("TDF002", domain="tdf", severity="error")
def signal_without_writer(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF signal is read but no out-port drives it."""
    return _findings(ctx, "TDF002",
                     hint="bind a TdfOut port to the signal")


@rule("TDF003", domain="tdf", severity="warning")
def signal_without_readers(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF signal is written but never read."""
    for cluster in ctx.clusters:
        for signal in cluster.signals:
            if signal.writer is not None and not signal.readers:
                yield ctx.diag(
                    "TDF003", "warning", signal.name,
                    f"samples written by "
                    f"{signal.writer.full_name()!r} are never read",
                    hint="connect a TdfIn port or remove the signal",
                )


@rule("TDF004", domain="tdf", severity="error")
def rate_inconsistent_cluster(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """TDF balance equations admit no consistent repetition vector."""
    return _findings(
        ctx, "TDF004",
        hint="adjust port rates so producer and consumer sample counts "
             "balance along every path")


@rule("TDF005", domain="tdf", severity="error")
def no_timestep_in_cluster(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """No module or port of a cluster declares a timestep."""
    return _findings(
        ctx, "TDF005",
        hint="call set_timestep() in some member's set_attributes()")


@rule("TDF006", domain="tdf", severity="error")
def conflicting_timesteps(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """Two timestep declarations imply different cluster periods."""
    return _findings(
        ctx, "TDF006",
        hint="declare the timestep once, or make the declarations "
             "consistent with the rate ratios")


@rule("TDF007", domain="tdf", severity="error")
def timestep_not_divisible(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """The cluster period does not divide evenly over rates."""
    return _findings(
        ctx, "TDF007",
        hint="choose a cluster timestep divisible by every module's "
             "activation count and port rate")


@rule("TDF008", domain="tdf", severity="error")
def cluster_deadlock(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A zero-delay feedback loop makes the cluster unschedulable."""
    for diagnostic in _findings(
            ctx, "TDF008",
            hint="break each feedback loop with an out-port delay "
                 "(set_delay) providing the initial samples"):
        cycles = [" -> ".join(cycle) for cycle in diagnostic.data["cycles"]]
        if cycles:
            diagnostic.message += f"; zero-delay cycles: {cycles}"
        yield diagnostic


@rule("TDF009", domain="tdf", severity="info")
def batching_pinned(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A module pins its cluster to unbatched one-period execution."""
    for cluster in ctx.clusters:
        for module in cluster.batching_pinned_by():
            cause = ("batch_unsafe=True" if module.batch_unsafe
                     else "raw DE ports held as attributes")
            yield ctx.diag(
                "TDF009", "info", module.full_name(),
                f"{cause} disables period batching for the whole "
                f"cluster {cluster.name}",
                hint="use converter ports (TdfDeIn/TdfDeOut) or drop "
                     "batch_unsafe if the module is batch-tolerant",
            )


@rule("TDF010", domain="tdf", severity="error")
def invalid_port_attributes(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TDF port carries a non-positive rate or negative delay."""
    return _findings(
        ctx, "TDF010",
        hint="pass rate >= 1 and delay >= 0 (or call set_rate/"
             "set_delay in set_attributes)")
