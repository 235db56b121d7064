"""Pinned ``Simulator.metrics_snapshot()`` keys and values.

Each case runs a short deterministic simulation with telemetry off and
compares the whole snapshot (every key, every value, exactly) against
``snapshot_pins.json``.  The cases cover every way a CT solver is
embedded: the three perf models, the ADSL prototype, resilient, gated
and switched ELN modules, an LSF module, a nonlinear module and a SciPy
plug-in.  Any change to how solver counters are harvested shows up
here as a changed key or value.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.adsl import AdslSystem
from repro.core import Clock, Module, SimTime, Simulator
from repro.ct import ScipyIvpSolver
from repro.ct.nonlinear import NonlinearSystem, dlimexp, limexp
from repro.eln import Capacitor, Network, Resistor, Switch, Vsource
from repro.lsf import LsfLtfNd, LsfNetwork, LsfSource
from repro.sync import (
    ElnTdfModule,
    InputHolder,
    LsfTdfModule,
    NonlinearTdfModule,
    SolverTdfModule,
)
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal

PERF_DIR = pathlib.Path(__file__).resolve().parents[1] \
    / "benchmarks" / "perf"
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))

from models import MODELS  # noqa: E402

PINS = pathlib.Path(__file__).with_name("snapshot_pins.json")


def us(x):
    return SimTime(x, "us")


class Source(TdfModule):
    """A step (``freq=0``) or a sine at ``freq``."""

    def __init__(self, name, parent, timestep, freq=0.0, amplitude=1.0):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self.freq = freq
        self.amplitude = amplitude
        self._ts = timestep

    def set_attributes(self):
        self.set_timestep(self._ts)

    def processing(self):
        if self.freq == 0.0:
            self.out.write(self.amplitude)
            return
        t = self.local_time.to_seconds()
        self.out.write(self.amplitude * np.sin(2 * np.pi * self.freq * t))


class Sink(TdfModule):
    def __init__(self, name, parent):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")

    def processing(self):
        self.inp.read()


def rc_network(R=1e3, C=1e-6):
    net = Network()
    net.add(Vsource("Vin", "in", "0"))
    net.add(Resistor("R1", "in", "out", R))
    net.add(Capacitor("C1", "out", "0", C))
    return net


class RcTop(Module):
    """source -> ELN RC -> sink, with optional gating / switch."""

    def __init__(self, freq, timestep_us, gated=False, switched=False,
                 **module_options):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = Source("src", self, us(timestep_us), freq=freq)
        net = rc_network(1e3, 1e-7 if switched else 1e-6)
        if switched:
            net.add(Switch("S1", "out", "0", closed=False,
                           r_on=1.0, r_off=1e12))
            self.clk = Clock("clk", period=SimTime(4, "ms"),
                             duty_cycle=0.25, parent=self,
                             start_time=SimTime(1, "ms"))
        self.rc = ElnTdfModule("rc", net, parent=self, **module_options)
        if gated:
            self.rc.enable_gating(tolerance=1e-9)
        if switched:
            self.rc.bind_switch("S1", self.clk.signal)
        self.sink = Sink("sink", self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.sink.inp(self.s_out)


class LsfTop(Module):
    def __init__(self):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = Source("src", self, us(10), freq=300.0)
        lsf = LsfNetwork()
        u = lsf.signal("u")
        y = lsf.signal("y")
        lsf.add(LsfSource("src", u))
        lsf.add(LsfLtfNd("filt", u, y, num=[1.0], den=[1.0, 1e-3]))
        self.filt = LsfTdfModule("filt", lsf, parent=self)
        self.sink = Sink("sink", self)
        self.src.out(self.s_in)
        self.filt.drive(u)(self.s_in)
        self.filt.sample(y)(self.s_out)
        self.sink.inp(self.s_out)


class DiodeClipper(NonlinearSystem):
    """Vin -> R -> diode || C: clips positive voltages near 0.6 V."""

    def __init__(self, holder, R=1e3, i_sat=1e-12, vt=0.025, C=1e-9):
        super().__init__(1)
        self.holder = holder
        self.R, self.i_sat, self.vt, self.Cap = R, i_sat, vt, C

    def charge(self, x):
        return np.array([self.Cap * x[0]])

    def charge_jacobian(self, x):
        return np.array([[self.Cap]])

    def static(self, x, t):
        v = x[0]
        i_diode = self.i_sat * (limexp(v / self.vt) - 1.0)
        return np.array([i_diode - (self.holder(t) - v) / self.R])

    def static_jacobian(self, x, t):
        v = x[0]
        g = self.i_sat * dlimexp(v / self.vt) / self.vt
        return np.array([[g + 1.0 / self.R]])


def wire_holder(module, holder, signal_in, signal_out):
    """Attach a TDF input onto ``holder`` and a state-0 output."""
    port = TdfIn("in_u")
    port.module = module
    module.in_u = port
    module._inputs.append((port, holder))
    module.add_output("v", lambda x: float(x[0]))
    port(signal_in)
    module.out_v(signal_out)


class ClipperTop(Module):
    def __init__(self, resilient=False):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = Source("src", self, us(5), freq=1e3, amplitude=5.0)
        holder = InputHolder()
        self.clip = NonlinearTdfModule("clip", DiodeClipper(holder),
                                       parent=self, resilient=resilient)
        self.sink = Sink("sink", self)
        self.src.out(self.s_in)
        wire_holder(self.clip, holder, self.s_in, self.s_out)
        self.sink.inp(self.s_out)


class ScipyTop(Module):
    def __init__(self, gated=False, resilient=False):
        super().__init__("top")
        tau = 1e-3
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = Source("src", self, us(20))
        holder = InputHolder()
        solver = ScipyIvpSolver(
            rhs=lambda t, x, h=holder: np.array([(h(t) - x[0]) / tau]),
            n=1,
        )
        self.ct = SolverTdfModule("ct", solver, parent=self,
                                  resilient=resilient)
        if gated:
            self.ct.enable_gating(tolerance=1e-9)
        self.sink = Sink("sink", self)
        self.src.out(self.s_in)
        wire_holder(self.ct, holder, self.s_in, self.s_out)
        self.sink.inp(self.s_out)


def perf_model(name):
    builder, _full_us, quick_us = MODELS[name]
    return builder, quick_us


#: case -> (build(), duration in µs)
CASES = {
    "adc_chain": perf_model("adc_chain"),
    "mixed_chain": perf_model("mixed_chain"),
    "eln_ladder": perf_model("eln_ladder"),
    "adsl": (AdslSystem, 2000.0),
    "rc_resilient": (lambda: RcTop(1e3, 10, resilient=True), 5000.0),
    "rc_oversampled": (lambda: RcTop(1e3, 10, oversample=4), 5000.0),
    "rc_gated": (lambda: RcTop(0.0, 10, gated=True), 20000.0),
    "rc_gated_resilient": (lambda: RcTop(0.0, 10, gated=True,
                                         resilient=True), 20000.0),
    "rc_switched_resilient": (lambda: RcTop(0.0, 20, switched=True,
                                            oversample=4,
                                            resilient=True), 4000.0),
    "lsf": (LsfTop, 5000.0),
    "nonlinear": (ClipperTop, 1000.0),
    "nonlinear_resilient": (lambda: ClipperTop(resilient=True), 1000.0),
    "scipy_plugin": (ScipyTop, 3000.0),
    "scipy_plugin_gated": (lambda: ScipyTop(gated=True), 20000.0),
    "scipy_plugin_resilient": (lambda: ScipyTop(resilient=True), 3000.0),
}


def snapshot(case):
    build, duration_us = CASES[case]
    sim = Simulator(build())
    sim.run(us(duration_us))
    return sim.metrics_snapshot()


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_snapshot_pinned(case):
    pinned = json.loads(PINS.read_text())[case]
    assert snapshot(case) == pinned
