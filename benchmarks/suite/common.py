"""Paths, statistics and the span recorder shared by the benchmark files."""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
PERF = os.path.join(ROOT, "benchmarks", "perf")
#: scratch space (ignored by git): each run's cache, store and job
#: directories live in a subdirectory removed after the run; a traced
#: run also leaves its spans here.
WORK = os.path.join(ROOT, ".bench_work")
SPEC = os.path.join(HERE, "campaigns.py")
SPEC_REF = f"{SPEC}::bench-mixed"

#: files outside the benchmark directory that it needs: the package
#: under test and the perf models it reuses.
REQUIRED = (os.path.join(SRC, "repro", "__init__.py"),
            os.path.join(PERF, "models.py"))


def derive_seed(*parts):
    """A 63-bit seed derived from the benchmark seed and labels."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def missing_inputs():
    return [path for path in REQUIRED if not os.path.isfile(path)]


def use_repo_paths():
    """Make ``repro`` and the perf models importable from the checkout."""
    for path in (HERE, PERF, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env():
    """Environment for child sessions: the checkout's ``src`` first."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    return env


def pin_to_one_cpu():
    """Run this session's threads on one CPU and give forked workers
    every CPU back.

    On a shared host the vCPUs can differ in speed, and a single-threaded
    process that the scheduler moves between them runs at either speed;
    a fixed CPU makes its timings comparable from run to run.
    """
    cpus = os.sched_getaffinity(0)
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))
    os.sched_setaffinity(0, {max(cpus)})


@contextmanager
def one_cpu():
    """The same CPU as :func:`pin_to_one_cpu` for a block that starts no
    process; the benchmark process itself spawns sessions, which must
    inherit every CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def peak_rss_mb():
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quantile(values, q):
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


#: percentiles a timing may be reported at, highest first.
PERCENTILES = (0.99, 0.95, 0.9, 0.75, 0.5)


def timing_summary(values):
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    reported = None
    for q in PERCENTILES:
        if n * (1.0 - q) >= 10:
            reported = q
            break
    return {
        "n": n,
        "median": statistics.median(values),
        "pct": reported,
        "pct_value": quantile(values, reported) if reported else None,
    }


class Spans:
    """In-memory span recorder for calls the benchmark makes into a layer.

    ``span(name, **attrs)`` times one call; spans nest through a parent
    stack, and :meth:`self_times` subtracts child time from the parent.
    A disabled recorder keeps the same interface and records nothing.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name, **attrs):
        """Wall time of every closed span called ``name`` with ``attrs``."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and r["end"] is not None
                and all(r["attrs"].get(k) == v for k, v in attrs.items())]

    def self_times(self):
        """``{name: total self time}``: span time minus child span time."""
        totals = {}
        child = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None and record["end"] is not None:
                child[record["parent"]] += record["end"] - record["start"]
        for index, record in enumerate(self.records):
            if record["end"] is None:
                continue
            own = record["end"] - record["start"] - child[index]
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def extend(self, records):
        """Adopt spans recorded by a child session (same host clock)."""
        base = len(self.records)
        for record in records:
            record = dict(record)
            if record["parent"] is not None:
                record["parent"] += base
            self.records.append(record)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)
