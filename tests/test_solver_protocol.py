"""The transient-solver protocol as the synchronization layer sees it.

CT modules drive a solver only through :class:`TransientSolver`'s
methods: ``initialize``/``advance_to``/``time``/``state`` are required,
``snap_algebraic``, ``skip_to``, ``rebind``, ``window_layout`` and
``counters`` have base-class defaults, and
:class:`ResilientTransientSolver` overrides them.  A plug-in that keeps
its clock under any attribute name works with gating, re-stamps and
``metrics_snapshot``.
"""

import numpy as np
import pytest

from repro.core import Clock, Module, SimTime, Simulator
from repro.ct import LinearTransientSolver, TransientSolver
from repro.eln import Capacitor, Network, Resistor, Switch, Vsource
from repro.resilience import ResilientTransientSolver
from repro.sync import ElnTdfModule, InputHolder, SolverTdfModule
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal

TAU = 1e-3


def us(x):
    return SimTime(x, "us")


class Step(TdfModule):
    def __init__(self, name, parent, timestep):
        super().__init__(name, parent)
        self.out = TdfOut("out")
        self._ts = timestep

    def set_attributes(self):
        self.set_timestep(self._ts)

    def processing(self):
        self.out.write(1.0)


class Recorder(TdfModule):
    def __init__(self, name, parent):
        super().__init__(name, parent)
        self.inp = TdfIn("inp")
        self.samples = []

    def processing(self):
        self.samples.append(self.inp.read())


class ExactRcSolver(TransientSolver):
    """A first-order lag integrated exactly, with its clock in ``now``:
    only the four required members, nothing named like the built-ins'
    internals."""

    def __init__(self, holder):
        self.holder = holder
        self.now = 0.0
        self.x = np.zeros(1)
        self.advances = 0

    def initialize(self, t0=0.0, x0=None):
        self.now = t0
        self.x = np.zeros(1) if x0 is None else np.asarray(x0, dtype=float)
        return self.x

    def advance_to(self, t):
        u = self.holder.value
        decay = np.exp(-(t - self.now) / TAU)
        self.x = u + (self.x - u) * decay
        self.now = t
        self.advances += 1
        return self.x

    @property
    def time(self):
        return self.now

    @property
    def state(self):
        return self.x

    def counters(self):
        return {"solver.steps": self.advances}


class PluginTop(Module):
    def __init__(self, resilient=False):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.src = Step("src", self, us(10))
        holder = InputHolder(interpolate=False)
        self.solver = ExactRcSolver(holder)
        self.ct = SolverTdfModule("ct", self.solver, parent=self,
                                  resilient=resilient)
        self.ct.enable_gating(tolerance=1e-9)
        port = TdfIn("in_u")
        port.module = self.ct
        self.ct.in_u = port
        self.ct._inputs.append((port, holder))
        self.ct.add_output("v", lambda x: float(x[0]))
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        port(self.s_in)
        self.ct.out_v(self.s_out)
        self.rec.inp(self.s_out)


@pytest.mark.parametrize("resilient", [False, True])
def test_gating_moves_a_plugin_clock(resilient):
    top = PluginTop(resilient=resilient)
    sim = Simulator(top)
    sim.run(SimTime(20, "ms"))
    solver = top.solver
    assert top.ct.skipped_activations > 100
    # Every activation, skipped or not, moves the plug-in's own clock.
    assert solver.time == pytest.approx(0.02)
    assert top.ct._solver.time == pytest.approx(0.02)
    assert solver.state_dict()["t"] == pytest.approx(0.02)
    assert not hasattr(solver, "_t")
    assert top.rec.samples[-1] == pytest.approx(1.0, abs=1e-6)
    snap = sim.metrics_snapshot()
    assert snap["solver.steps[module=top.ct]"] == solver.advances
    assert snap["solver.steps"] + snap["ct.skipped_activations"] == 2000


def rc_dae():
    net = Network()
    net.add(Vsource("Vin", "in", "0", 1.0))
    net.add(Resistor("R1", "in", "out", 1e3))
    net.add(Capacitor("C1", "out", "0", 1e-6))
    dae, _index = net.assemble()
    return dae


def test_optional_methods_have_defaults():
    solver = ExactRcSolver(InputHolder())
    solver.initialize(0.0, np.array([0.5]))
    assert solver.snap_algebraic(1e-5) is solver.state
    assert solver.rebind(object()) is False
    assert solver.window_layout() is None
    solver.skip_to(2e-3)
    assert solver.time == 2e-3 and solver.state[0] == 0.5
    assert TransientSolver.counters(solver) == {}


def test_builtin_linear_solver_offers_the_window_path():
    solver = LinearTransientSolver(rc_dae())
    rows, needs_b_now = solver.window_layout()
    assert rows and needs_b_now  # trapezoidal reads b at both ends
    assert LinearTransientSolver(rc_dae(), h_internal=1e-6) \
        .window_layout() is None
    assert LinearTransientSolver(rc_dae(), method="backward_euler") \
        .window_layout()[1] is False


def test_resilient_wrapper_declines_the_window_path():
    solver = ResilientTransientSolver(LinearTransientSolver(rc_dae()))
    assert solver.window_layout() is None
    assert solver.primary.window_layout() is None  # monitor installed


def test_resilient_skip_to_does_not_check_the_state():
    solver = ResilientTransientSolver(LinearTransientSolver(rc_dae()))
    solver.initialize(0.0)
    solver.advance_to(1e-5)
    checked = solver.monitor.checked_steps
    solver.skip_to(3e-5)
    assert solver.time == 3e-5
    assert solver.monitor.checked_steps == checked
    counters = solver.counters()
    assert counters["health.checked_steps"] == checked
    assert counters["resilience.tier.primary"] == 1
    assert counters["solver.steps"] == 1


def test_resilient_rebind_restarts_from_the_primary():
    solver = ResilientTransientSolver(LinearTransientSolver(rc_dae()))
    solver.initialize(0.0)
    solver.advance_to(1e-5)
    assert solver.rebind(rc_dae()) is True
    assert solver.state_dict()["t_good"] == 1e-5

    class Fixed(LinearTransientSolver):
        rebind = TransientSolver.rebind

    assert ResilientTransientSolver(Fixed(rc_dae())).rebind(rc_dae()) \
        is False


class NoRebindSolver(LinearTransientSolver):
    """A linear solver that declines in-place re-stamps."""

    rebind = TransientSolver.rebind


class RebuildingEln(ElnTdfModule):
    def _make_solver(self):
        solver = super()._make_solver()
        return NoRebindSolver(solver.system, h_internal=solver.h_internal)


class SwitchedTop(Module):
    def __init__(self, module_cls, resilient):
        super().__init__("top")
        self.s_in = TdfSignal("s_in")
        self.s_out = TdfSignal("s_out")
        self.clk = Clock("clk", period=SimTime(4, "ms"), duty_cycle=0.25,
                         parent=self, start_time=SimTime(1, "ms"))
        self.src = Step("src", self, us(20))
        net = Network()
        net.add(Vsource("Vin", "in", "0"))
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Capacitor("C1", "out", "0", 1e-7))
        net.add(Switch("S1", "out", "0", closed=False, r_on=1.0,
                       r_off=1e12))
        self.rc = module_cls("rc", net, parent=self, oversample=4,
                             resilient=resilient)
        self.rc.bind_switch("S1", self.clk.signal)
        self.rec = Recorder("rec", self)
        self.src.out(self.s_in)
        self.rc.drive_voltage("Vin")(self.s_in)
        self.rc.sample_voltage("out")(self.s_out)
        self.rec.inp(self.s_out)


@pytest.mark.parametrize("resilient", [False, True])
def test_declined_rebind_rebuilds_the_solver(resilient):
    runs = {}
    for cls in (ElnTdfModule, RebuildingEln):
        top = SwitchedTop(cls, resilient)
        Simulator(top).run(SimTime(4, "ms"))
        runs[cls] = top
    rebound, rebuilt = runs[ElnTdfModule], runs[RebuildingEln]
    assert rebound.rc.rebuild_count == rebuilt.rc.rebuild_count == 2
    assert isinstance(rebuilt.rc._solver, ResilientTransientSolver) \
        == resilient
    assert rebuilt.rc._solver.time == pytest.approx(4e-3)
    np.testing.assert_allclose(rebuilt.rec.samples, rebound.rec.samples,
                               rtol=0, atol=1e-9)
