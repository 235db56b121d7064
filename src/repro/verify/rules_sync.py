"""DE <-> TDF synchronization checks (SYNC0xx)."""

from __future__ import annotations

from numbers import Number

from typing import Iterator

from ..core.errors import BindingError
from .context import VerifyContext
from .diagnostics import Diagnostic
from .registry import rule


def _resolved(converter):
    """The DE signal behind a converter port, or None if unbound."""
    try:
        return converter.port.resolve()
    except BindingError:
        return None


@rule("SYNC001", domain="sync", severity="error")
def converter_port_unbound(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A converter port's DE side is not bound to a signal."""
    for cluster in ctx.clusters:
        for converter in cluster.de_inputs + cluster.de_outputs:
            try:
                converter.port.resolve()
            except BindingError as exc:
                yield ctx.diag(
                    "SYNC001", "error", converter.full_name(),
                    f"converter port's DE side: {exc}",
                    hint="bind the converter to a DE signal before "
                         "simulating",
                )


@rule("SYNC002", domain="sync", severity="error")
def converter_rate_indivisible(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A TdfDeOut rate does not divide its module's timestep."""
    for cluster in ctx.clusters:
        for converter in cluster.de_outputs:
            if converter.rate < 1:
                yield ctx.diag(
                    "SYNC002", "error", converter.full_name(),
                    f"converter rate {converter.rate} must be >= 1",
                    hint="pass rate >= 1 to TdfDeOut",
                )
                continue
            module = converter.module
            if module is None:
                continue
            ticks = cluster.module_timestep_ticks.get(module)
            if ticks is not None and ticks % converter.rate:
                yield ctx.diag(
                    "SYNC002", "error", converter.full_name(),
                    f"module timestep of {ticks} ticks is not "
                    f"divisible by converter rate {converter.rate}; "
                    f"replayed sample times would fall between "
                    f"ticks",
                    hint="pick a timestep divisible by the converter "
                         "rate",
                )


@rule("SYNC003", domain="sync", severity="warning")
def clock_sampling_mismatch(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A converter input samples a clock it cannot track faithfully."""
    clock_of_signal = {id(c.signal): c for c in ctx.clocks}
    for cluster in ctx.clusters:
        period = cluster.period_ticks
        if period is None:
            continue
        for converter in cluster.de_inputs:
            signal = _resolved(converter)
            clock = clock_of_signal.get(id(signal))
            if clock is None:
                continue
            clock_ticks = clock.period.ticks
            if period > clock_ticks:
                yield ctx.diag(
                    "SYNC003", "warning", converter.full_name(),
                    f"cluster period ({period} ticks) exceeds the "
                    f"period of clock {clock.full_name()!r} "
                    f"({clock_ticks} ticks); clock edges will be "
                    f"missed between samples",
                    hint="shorten the cluster timestep to at most "
                         "the clock period",
                )
            elif clock_ticks % period:
                yield ctx.diag(
                    "SYNC003", "warning", converter.full_name(),
                    f"clock {clock.full_name()!r} period "
                    f"({clock_ticks} ticks) is not a multiple of the "
                    f"cluster period ({period} ticks); sampled edges "
                    f"will jitter against the clock",
                    hint="make the clock period an integer multiple "
                         "of the cluster period",
                )


@rule("SYNC004", domain="sync", severity="warning")
def boundary_type_mismatch(ctx: VerifyContext) -> Iterator[Diagnostic]:
    """A converter input's type disagrees with its DE signal's type."""
    for cluster in ctx.clusters:
        for converter in cluster.de_inputs:
            signal = _resolved(converter)
            if signal is None:
                continue  # SYNC001 reports unbound converters
            try:
                current = signal.read()
            except Exception:
                continue
            expects_number = isinstance(converter._sampled, Number)
            delivers_number = isinstance(current, Number)
            if expects_number and not delivers_number:
                yield ctx.diag(
                    "SYNC004", "warning", converter.full_name(),
                    f"converter initial value is numeric but DE "
                    f"signal {signal.name!r} currently holds "
                    f"{type(current).__name__!r}; TDF arithmetic on "
                    f"the samples may fail",
                    hint="align the converter's initial_value type "
                         "with the signal's payload type",
                )
