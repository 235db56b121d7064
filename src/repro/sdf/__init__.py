"""`repro.sdf` — the untimed synchronous dataflow model of computation.

Provides SDF graphs with balance-equation rate analysis, repetition
vectors, deadlock detection, static schedule (PASS) construction, and an
actor library for stream processing.  The analysis lives in
:mod:`repro.sdf.analysis`, shared with TDF elaboration and the verifier.
"""

from .actors import (
    Accumulator,
    Add,
    Const,
    Deinterleave,
    Downsample,
    Fir,
    Fork,
    Gain,
    Interleave,
    Map,
    Mul,
    Ramp,
    Sink,
    Source,
    Sub,
    Upsample,
)
from .graph import Actor, Edge, SdfGraph

__all__ = [
    "Accumulator", "Actor", "Add", "Const", "Deinterleave", "Downsample",
    "Edge", "Fir", "Fork", "Gain", "Interleave", "Map", "Mul", "Ramp",
    "SdfGraph", "Sink", "Source", "Sub", "Upsample",
]
