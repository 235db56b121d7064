"""Campaign spec shared by the campaign workloads of the benchmark.

One build-style campaign whose points mix the three perf models of
``benchmarks/perf/models.py`` (``adc_chain``, ``mixed_chain``,
``eln_ladder``).  The batch workload runs it through
:class:`~repro.campaign.CampaignRunner`; the service workload submits
it by reference (``campaigns.py::bench-mixed``), so the service process
and its forked pool workers load this file by path.  Everything here is
therefore module-level, and ``build`` / ``metrics`` pass the CODE lint
with zero findings: pre-flight does its full work and rejects nothing.

The campaign root seed (set per use) reaches every point as the spawned
``seed`` parameter, which perturbs the source amplitude and phase, so
different benchmark seeds give different outputs.
"""

import os
import sys

import numpy as np

_PERF = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perf")
if _PERF not in sys.path:
    sys.path.insert(0, _PERF)

from models import MODELS, sink_streams  # noqa: E402

from repro.analysis import rms  # noqa: E402
from repro.campaign import Campaign, Sweep  # noqa: E402
from repro.core import SimTime, Simulator  # noqa: E402

#: model classes, in the order points cycle through them.
MODEL_NAMES = ("adc_chain", "mixed_chain", "eln_ladder")

#: simulated time of one campaign point: short, so that pre-flight
#: rather than simulation dominates a build-style batch.
POINT_US = 200.0

#: points per model class available to a job (jobs take a prefix).
SLOTS = 64


def build_model(name, seed):
    """One perf model with its source perturbed by ``seed``."""
    top = MODELS[name][0]()
    source = top.tone if name == "adc_chain" else top.src
    rng = np.random.default_rng(seed)
    source.amplitude = source.amplitude * (0.75 + 0.5 * rng.random())
    source.phase = 2.0 * np.pi * rng.random()
    return top


def build(params):
    return Simulator(build_model(params["model"], params["seed"]))


def metrics(top):
    _, samples = sink_streams(top)
    return {
        "samples": len(samples),
        "rms": rms(samples),
        "peak": float(np.max(np.abs(samples))),
        "last": float(samples[-1]),
    }


#: ``slot`` is the outer axis, so any prefix of the points mixes all
#: three model classes evenly.
BENCH = Campaign(
    name="bench-mixed",
    space=Sweep({"slot": list(range(SLOTS)), "model": list(MODEL_NAMES)}),
    build=build,
    duration=SimTime(POINT_US, "us"),
    metrics=metrics,
    description="perf models, one perturbed source per point",
)
