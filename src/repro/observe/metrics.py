"""Metrics registry: counters, gauges and histograms with stable names.

The registry is the *numerical* half of the telemetry subsystem (the
tracer being the temporal half): cheap monotonic counters (solver
steps, tier escalations, converter handoffs), last-value gauges
(buffer occupancy, ladder depth), and fixed-bucket histograms (batch
sizes, events per delta) that support approximate quantiles without
retaining samples.

Metric identity is ``name`` plus an optional, sorted ``labels`` mapping
— ``registry.counter("solver.steps", module="top.rc")`` — rendered as
``solver.steps[module=top.rc]`` in dumps.  **Metric names are a
stability contract**: names listed in ``docs/TUTORIAL.md`` §9 are only
extended, never renamed or re-unitized, so dashboards and campaign
aggregations survive upgrades.

Hot-path cost: ``Counter.inc`` is one float add; ``Histogram.observe``
is one ``bisect`` plus three float ops.  Instrument sites hold direct
references to the metric objects (fetched once at elaboration), never
re-resolving names per event.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds: powers of two cover batch
#: sizes, iteration counts and queue depths over 6 decades.
DEFAULT_BOUNDS = tuple(float(2 ** k) for k in range(0, 21))

#: Exponential (power-of-2) bounds for *latency* histograms: ~1 ms up
#: to 64 s.  :data:`DEFAULT_BOUNDS` starts at 1.0, which collapses
#: every sub-second latency into one bucket; wall-clock quantities
#: (``job.wait_seconds``, ``job.run_seconds``, per-point run times)
#: should use these instead.
LATENCY_BOUNDS = tuple(2.0 ** k for k in range(-10, 7))


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical dump key: ``name`` or ``name[k1=v1,k2=v2]``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}[{inner}]"


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything beyond the last edge.  Quantiles interpolate
    within the winning bucket, which is accurate enough for the p50 /
    p95 summaries the terminal exporter prints.
    """

    __slots__ = ("bounds", "buckets", "count", "total", "minimum",
                 "maximum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0..1) from the bucket counts."""
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.buckets):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                hi = (self.bounds[index] if index < len(self.bounds)
                      else self.maximum)
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = min(hi, self.maximum)
                lo = max(min(lo, hi), self.minimum if index == 0 else lo)
                fraction = (target - (cumulative - bucket_count)) \
                    / bucket_count
                return lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
        return self.maximum

    def to_dict(self) -> Dict[str, Any]:
        # ``bounds``/``buckets`` make the dump *mergeable*: the fleet
        # aggregator (repro.observe.fleet) bucket-merges histograms
        # from many worker registries into one cluster-wide view.
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named metric store; one per :class:`~repro.observe.Telemetry`.

    Accessors are get-or-create and memoized by ``(name, labels)``;
    re-requesting a metric with a mismatched type raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get(self, name: str, labels: Dict[str, Any], factory):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {factory.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, *,
                  bounds: Optional[Iterable[float]] = None,
                  **labels: Any) -> Histogram:
        """Get-or-create a histogram.  ``bounds`` (used only on first
        creation — the first registration wins) selects the bucket
        edges, e.g. :data:`LATENCY_BOUNDS` for wall-clock metrics."""
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(bounds if bounds is not None
                               else DEFAULT_BOUNDS)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not Histogram")
        return metric

    # -- bulk access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The metric registered under ``(name, labels)``, or ``None``
        — a read-only lookup that never creates."""
        return self._metrics.get(metric_key(name, labels))

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def update_scalars(self, values: Dict[str, float]) -> None:
        """Install a flat ``{key: number}`` mapping as gauges (used to
        merge harvested simulator state into the registry dump)."""
        for key, value in values.items():
            metric = self._metrics.get(key)
            if metric is None:
                metric = Gauge()
                self._metrics[key] = metric
            if isinstance(metric, Gauge):
                metric.set(value)
            elif isinstance(metric, Counter):
                metric.value = float(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry: counters add, gauges take
        ``other``'s value, histograms add bucket by bucket (both sides
        must share bucket bounds)."""
        for key, incoming in other._metrics.items():
            metric = self._metrics.get(key)
            if metric is None:
                self._metrics[key] = copy.deepcopy(incoming)
            elif type(metric) is not type(incoming) or (
                    isinstance(metric, Histogram)
                    and metric.bounds != incoming.bounds):
                raise TypeError(f"cannot merge metric {key!r}: kind "
                                "or bucket bounds differ")
            elif isinstance(metric, Counter):
                metric.value += incoming.value
            elif isinstance(metric, Gauge):
                metric.value = incoming.value
            else:
                metric.buckets = [a + b for a, b in zip(
                    metric.buckets, incoming.buckets)]
                metric.count += incoming.count
                metric.total += incoming.total
                metric.minimum = min(metric.minimum, incoming.minimum)
                metric.maximum = max(metric.maximum, incoming.maximum)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` keyed by the canonical metric key."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Any] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                histograms[key] = metric.to_dict()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def scalars(self) -> Dict[str, float]:
        """Flat ``{key: number}`` view (histograms contribute their
        count/sum/p95), convenient for campaign record snapshots."""
        flat: Dict[str, float] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, (Counter, Gauge)):
                flat[key] = metric.value
            else:
                flat[f"{key}.count"] = float(metric.count)
                flat[f"{key}.sum"] = float(metric.total)
                flat[f"{key}.p95"] = float(metric.quantile(0.95))
        return flat


def find_non_finite(metrics_dump: Dict[str, Any],
                    prefix: str = "") -> List[str]:
    """Keys in a :meth:`MetricsRegistry.to_dict`-shaped mapping whose
    values are NaN/Inf — the CI artifact check fails on any hit."""
    import math

    bad: List[str] = []

    def walk(node: Any, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, float) and not math.isfinite(node):
            bad.append(path)

    walk(metrics_dump, prefix)
    return bad
