"""Static model verifier: rules, CLI, simulator and campaign hooks.

Each rule gets at least one fabricated failing model asserting the
exact rule id and location, plus positive coverage proving the clean
path stays silent; seed example models are regression-checked to
verify with zero findings.
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignRunner
from repro.campaign.cache import cache_key
from repro.core import (
    Clock,
    ElaborationError,
    InPort,
    Module,
    Signal,
    SimTime,
    Simulator,
)
from repro.eln import (
    Capacitor,
    Cccs,
    Inductor,
    Isource,
    Network,
    Resistor,
    Vccs,
    Vsource,
)
from repro.sdf import Actor, SdfGraph
from repro.tdf import TdfDeIn, TdfDeOut, TdfIn, TdfModule, TdfOut, TdfSignal
from repro.verify import (
    StaticVerificationError,
    all_rules,
    ruleset_version,
    verify,
)
from repro.verify.__main__ import main as verify_main

TS = SimTime(1, "us")


# ---------------------------------------------------------------------------
# model-building helpers
# ---------------------------------------------------------------------------

class Src(TdfModule):
    """TDF source with configurable rate/delay/timestep."""

    def __init__(self, name, parent=None, rate=1, delay=0,
                 timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=rate, delay=delay)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.out.write(0.0)


class Sink(TdfModule):
    def __init__(self, name, parent=None, rate=1, timestep=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=rate)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.inp.read()


class Passthrough(TdfModule):
    def __init__(self, name, parent=None, in_rate=1, out_rate=1,
                 out_delay=0, timestep=None):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=in_rate)
        self.out = TdfOut("out", rate=out_rate, delay=out_delay)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.out.write(self.inp.read())


def clean_pair():
    """A minimal clean TDF model (source -> sink, timestep set)."""
    top = Module("top")
    src = Src("src", top, timestep=TS)
    sink = Sink("sink", top)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    return top


def rules_of(report):
    return {d.rule for d in report}


# ---------------------------------------------------------------------------
# CORE rules
# ---------------------------------------------------------------------------

def test_core001_duplicate_names():
    top = Module("top")
    Module("a.b", parent=top)                 # full name "top.a.b"
    Module("b", parent=Module("a", parent=top))  # also "top.a.b"
    report = verify(top)
    hits = report.by_rule("CORE001")
    assert len(hits) == 1
    assert hits[0].location == "top.a.b"
    assert hits[0].severity == "error"


def test_core002_unbound_de_port():
    top = Module("top")
    child = Module("child", parent=top)
    child.inp = InPort("inp")
    report = verify(top)
    hits = report.by_rule("CORE002")
    assert [d.location for d in hits] == ["top.child.inp"]


def test_core002_binding_cycle():
    top = Module("top")
    top.a = InPort("a")
    top.b = InPort("b")
    top.a.bind(top.b)
    top.b.bind(top.a)
    report = verify(top)
    assert {d.location for d in report.by_rule("CORE002")} == \
        {"top.a", "top.b"}
    assert "cycle" in report.by_rule("CORE002")[0].message


def test_core003_process_never_runs():
    top = Module("top")
    top.method(lambda: None, sensitivity=(), dont_initialize=True,
               name="dead")
    report = verify(top)
    hits = report.by_rule("CORE003")
    assert [d.location for d in hits] == ["top.dead"]
    assert hits[0].severity == "warning"
    # the report is still ok (no errors)
    assert report.ok and not report.clean()


def test_core004_bad_sensitivity_entry():
    top = Module("top")
    top.method(lambda: None, sensitivity=[42], name="proc")
    report = verify(top)
    assert [d.location for d in report.by_rule("CORE004")] == \
        ["top.proc"]


def test_core_clean_process_is_silent():
    top = Module("top")
    sig = Signal("s")
    top.method(lambda: None, sensitivity=[sig], name="proc")
    top.thread(lambda: iter(()), name="boot")  # runs once at init
    report = verify(top)
    assert not report.by_rule("CORE003")
    assert not report.by_rule("CORE004")


# ---------------------------------------------------------------------------
# TDF rules
# ---------------------------------------------------------------------------

def test_tdf001_unbound_port():
    top = Module("top")
    Src("src", top, timestep=TS)  # out port never bound
    report = verify(top)
    assert [d.location for d in report.by_rule("TDF001")] == \
        ["top.src.out"]


def test_tdf002_signal_without_writer():
    top = Module("top")
    sink = Sink("sink", top, timestep=TS)
    sink.inp(TdfSignal("orphan"))
    report = verify(top)
    hits = report.by_rule("TDF002")
    assert len(hits) == 1 and hits[0].location == "orphan"
    assert hits[0].data["readers"] == ["top.sink.inp"]


def test_tdf003_signal_without_readers():
    top = Module("top")
    src = Src("src", top, timestep=TS)
    src.out(TdfSignal("deadend"))
    report = verify(top)
    hits = report.by_rule("TDF003")
    assert len(hits) == 1 and hits[0].location == "deadend"
    assert hits[0].severity == "warning"


def test_tdf004_rate_inconsistent():
    top = Module("top")
    src = Src("src", top, rate=2, timestep=TS)
    mid = Passthrough("mid", top, in_rate=3, out_rate=1)
    sink = Sink("sink", top, rate=1)
    s1, s2, s3 = TdfSignal("s1"), TdfSignal("s2"), TdfSignal("s3")
    src.out(s1)
    mid.inp(s1)
    mid.out(s2)
    sink.inp(s2)
    # second, conflicting constraint: src drives sink 1:1 via another
    # port pair
    src.out2 = TdfOut("out2", rate=1)
    sink.inp2 = TdfIn("inp2", rate=1)
    src.out2(s3)
    sink.inp2(s3)
    report = verify(top)
    assert report.by_rule("TDF004")
    assert not report.ok


def test_tdf005_no_timestep():
    top = Module("top")
    src = Src("src", top)          # nobody declares a timestep
    sink = Sink("sink", top)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)
    hits = report.by_rule("TDF005")
    assert len(hits) == 1
    assert set(hits[0].data["members"]) == {"top.src", "top.sink"}


def test_tdf006_conflicting_timesteps():
    top = Module("top")
    src = Src("src", top, timestep=SimTime(1, "us"))
    sink = Sink("sink", top, timestep=SimTime(3, "us"))
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)
    hits = report.by_rule("TDF006")
    assert hits and hits[0].location in ("top.src", "top.sink")


def test_tdf007_rate_divisibility():
    top = Module("top")
    src = Src("src", top, rate=3, timestep=SimTime(1, "fs"))
    sink = Sink("sink", top, rate=3)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)  # 1 fs module timestep % rate 3 != 0
    assert any(d.location == "top.src.out"
               for d in report.by_rule("TDF007"))


def test_tdf008_zero_delay_feedback_deadlock():
    top = Module("top")
    fwd = Passthrough("fwd", top, timestep=TS)
    back = Passthrough("back", top)
    ab, ba = TdfSignal("ab"), TdfSignal("ba")
    fwd.out(ab)
    back.inp(ab)
    back.out(ba)
    fwd.inp(ba)
    report = verify(top)
    hits = report.by_rule("TDF008")
    assert len(hits) == 1
    assert set(hits[0].data["stuck"]) == {"top.fwd", "top.back"}
    assert sorted(hits[0].data["cycles"][0]) == ["top.back", "top.fwd"]


def test_tdf008_delay_breaks_the_loop():
    top = Module("top")
    fwd = Passthrough("fwd", top, timestep=TS)
    back = Passthrough("back", top, out_delay=1)
    ab, ba = TdfSignal("ab"), TdfSignal("ba")
    fwd.out(ab)
    back.inp(ab)
    back.out(ba)
    fwd.inp(ba)
    report = verify(top)
    assert not report.by_rule("TDF008")
    assert report.ok


def test_tdf009_batching_pinned_is_info():
    top = Module("top")
    src = Src("src", top, timestep=TS)
    sink = Sink("sink", top)
    type(sink).batch_unsafe = True
    try:
        sig = TdfSignal("s")
        src.out(sig)
        sink.inp(sig)
        report = verify(top)
        hits = report.by_rule("TDF009")
        assert [d.location for d in hits] == ["top.sink"]
        assert hits[0].severity == "info"
        assert report.ok
    finally:
        type(sink).batch_unsafe = False


def test_tdf010_invalid_port_attributes():
    top = Module("top")
    src = Src("src", top, rate=0, timestep=TS)
    sink = Sink("sink", top)
    sink.inp._delay = -1
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)
    locations = {d.location for d in report.by_rule("TDF010")}
    assert locations == {"top.src.out", "top.sink.inp"}


@pytest.mark.parametrize("attrs", [{"rate": 0}, {"delay": -1}])
def test_invalid_port_attributes_fail_elaboration_by_name(attrs):
    """Elaboration rejects what TDF010 reports, naming the port, rather
    than dividing by zero or misreporting a deadlock."""
    top = Module("top")
    src = Src("src", top, timestep=TS, **attrs)
    sink = Sink("sink", top)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    assert [d.location for d in verify(top).by_rule("TDF010")] == \
        ["top.src.out"]
    with pytest.raises(ElaborationError, match=r"top\.src\.out"):
        Simulator(top).elaborate()


def test_tdf008_silent_on_large_valid_cluster():
    """A valid cluster needing over a million firings per period is
    schedulable: the verifier agrees with elaboration."""
    top = Module("top")
    src = Src("src", top, timestep=TS)
    sink = Sink("sink", top, rate=1_000_001)
    sig = TdfSignal("s")
    src.out(sig)
    sink.inp(sig)
    report = verify(top)
    assert not report.by_rule("TDF008")
    assert report.ok
    sim = Simulator(top)
    sim.elaborate()
    cluster = sim._tdf_registry.clusters[0]
    assert cluster.repetitions[id(src)] == 1_000_001
    assert cluster.repetitions[id(sink)] == 1


# ---------------------------------------------------------------------------
# SDF rules
# ---------------------------------------------------------------------------

def _actor(name, inputs=None, outputs=None):
    return Actor(name, input_rates=inputs, output_rates=outputs)


def test_sdf001_rate_inconsistent():
    graph = SdfGraph("bad")
    a = _actor("a", inputs={"in": 1}, outputs={"out": 2})
    b = _actor("b", inputs={"in": 1}, outputs={"out": 1})
    graph.connect(a, "out", b, "in")
    graph.connect(b, "out", a, "in", initial_tokens=[0.0, 0.0])
    report = verify(graph)
    hits = report.by_rule("SDF001")
    assert hits and hits[0].location == "bad"
    assert "rate-inconsistent" in hits[0].message
    # SDF002/SDF005 stay silent on rate-broken graphs
    assert not report.by_rule("SDF002")
    assert not report.by_rule("SDF005")


def test_sdf002_deadlock_and_cycle_listing():
    graph = SdfGraph("dead")
    a = _actor("a", inputs={"in": 1}, outputs={"out": 1})
    b = _actor("b", inputs={"in": 1}, outputs={"out": 1})
    graph.connect(a, "out", b, "in")
    graph.connect(b, "out", a, "in")  # no initial tokens
    report = verify(graph)
    hits = report.by_rule("SDF002")
    assert len(hits) == 1
    assert hits[0].location == "dead.a"
    assert hits[0].data["cycles"] == [["a", "b"]]


def test_sdf002_initial_tokens_unlock():
    graph = SdfGraph("ok")
    a = _actor("a", inputs={"in": 1}, outputs={"out": 1})
    b = _actor("b", inputs={"in": 1}, outputs={"out": 1})
    graph.connect(a, "out", b, "in")
    graph.connect(b, "out", a, "in", initial_tokens=[0.0])
    report = verify(graph)
    assert not report.by_rule("SDF002")
    assert report.ok


def test_sdf003_undriven_input():
    graph = SdfGraph("g")
    a = _actor("a", outputs={"out": 1})
    b = _actor("b", inputs={"in": 1, "unused": 1})
    graph.connect(a, "out", b, "in")
    report = verify(graph)
    assert [d.location for d in report.by_rule("SDF003")] == \
        ["g.b.unused"]


def test_sdf004_unconnected_output():
    graph = SdfGraph("g")
    a = _actor("a", outputs={"out": 1, "spare": 1})
    b = _actor("b", inputs={"in": 1})
    graph.connect(a, "out", b, "in")
    report = verify(graph)
    hits = report.by_rule("SDF004")
    assert [d.location for d in hits] == ["g.a.spare"]
    assert hits[0].severity == "warning"


def test_sdf005_buffer_bound():
    graph = SdfGraph("big")
    a = _actor("a", outputs={"out": 8192})
    b = _actor("b", inputs={"in": 1})
    graph.connect(a, "out", b, "in")
    report = verify(graph)
    hits = report.by_rule("SDF005")
    assert len(hits) == 1
    assert hits[0].location == "big.a.out->b.in"
    assert hits[0].data["bound"] == 8192


# ---------------------------------------------------------------------------
# ELN rules
# ---------------------------------------------------------------------------

def test_eln001_dangling_node():
    net = Network("n")
    net.add(Vsource("V1", "in", "0"))
    net.add(Resistor("R1", "in", "out", 1e3))  # "out" dangles
    report = verify(net)
    hits = report.by_rule("ELN001")
    assert [d.location for d in hits] == ["n.out"]
    assert hits[0].severity == "warning"


def test_eln002_floating_subcircuit():
    net = Network("n")
    net.add(Vsource("V1", "in", "0"))
    net.add(Resistor("R1", "in", "0", 1e3))
    net.add(Resistor("R2", "x", "y", 1e3))  # island {x, y}
    report = verify(net)
    hits = report.by_rule("ELN002")
    assert len(hits) == 1
    assert hits[0].location == "n.x"
    assert hits[0].data["nodes"] == ["x", "y"]


def test_eln003_voltage_source_loop():
    net = Network("n")
    net.add(Vsource("V1", "a", "0"))
    net.add(Vsource("V2", "a", "0"))  # parallel sources
    report = verify(net)
    assert [d.location for d in report.by_rule("ELN003")] == ["n.V2"]


def test_eln003_inductor_across_source():
    net = Network("n")
    net.add(Vsource("V1", "a", "0"))
    net.add(Inductor("L1", "a", "0", 1e-3))
    report = verify(net)
    assert report.by_rule("ELN003")


def test_eln004_capacitor_cutset():
    net = Network("n")
    net.add(Isource("I1", "a", "0", 1e-3))
    net.add(Capacitor("C1", "a", "0", 1e-9))
    report = verify(net)
    hits = report.by_rule("ELN004")
    assert [d.location for d in hits] == ["n.a"]


def test_eln004_resistor_provides_dc_path():
    net = Network("n")
    net.add(Isource("I1", "a", "0", 1e-3))
    net.add(Capacitor("C1", "a", "0", 1e-9))
    net.add(Resistor("R1", "a", "0", 1e6))
    report = verify(net)
    assert not report.by_rule("ELN004")
    assert report.ok


def test_eln005_structurally_singular():
    net = Network("n")
    net.add(Vsource("V1", "in", "0"))
    net.add(Resistor("R1", "in", "out", 1e3))
    net.add(Resistor("R2", "out", "0", 1e3))
    # control nodes cp/cn appear in no KCL equation: zero rows
    net.add(Vccs("G1", "out", "0", "cp", "cn", 1e-3))
    report = verify(net)
    hits = report.by_rule("ELN005")
    assert len(hits) == 1
    assert hits[0].location == "n.n"
    assert "v(cp)" in hits[0].data["unknowns"]


def test_eln006_self_short():
    net = Network("n")
    net.add(Vsource("V1", "a", "0"))
    net.add(Resistor("R1", "a", "0", 50.0))
    net.add(Resistor("Rshort", "a", "a", 1.0))
    report = verify(net)
    hits = report.by_rule("ELN006")
    assert [d.location for d in hits] == ["n.Rshort"]
    assert hits[0].severity == "warning"


def test_eln007_bad_current_control():
    net = Network("n")
    net.add(Vsource("V1", "in", "0"))
    net.add(Resistor("R1", "in", "0", 1e3))
    net.add(Cccs("F1", "in", "0", "nope", 2.0))     # missing
    net.add(Cccs("F2", "in", "0", "R1", 2.0))       # no branch current
    report = verify(net)
    assert {d.location for d in report.by_rule("ELN007")} == \
        {"n.F1", "n.F2"}


def test_eln008_empty_network():
    report = verify(Network("void"))
    hits = report.by_rule("ELN008")
    assert [d.location for d in hits] == ["void.void"]
    # and that's the only finding
    assert len(report) == 1


def test_eln_clean_rc_divider():
    net = Network("rc")
    net.add(Vsource("V1", "in", "0"))
    net.add(Resistor("R1", "in", "out", 1e3))
    net.add(Capacitor("C1", "out", "0", 1e-9))
    report = verify(net)
    assert report.clean()


# ---------------------------------------------------------------------------
# SYNC rules
# ---------------------------------------------------------------------------

class Bridge(TdfModule):
    """TDF module with converter ports on both sides."""

    def __init__(self, name, parent=None, timestep=TS, out_rate=1):
        super().__init__(name, parent)
        self.cmd = TdfDeIn("cmd")
        self.meas = TdfDeOut("meas", rate=out_rate)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        self.meas.write(self.cmd.read())


def test_sync001_unbound_converter():
    top = Module("top")
    Bridge("bridge", top)  # converter DE sides never bound
    report = verify(top)
    locations = {d.location for d in report.by_rule("SYNC001")}
    assert locations == {"top.bridge.cmd", "top.bridge.meas"}


def test_sync002_rate_indivisible():
    top = Module("top")
    bridge = Bridge("bridge", top, timestep=SimTime.from_ticks(10),
                    out_rate=3)
    bridge.cmd.bind(Signal("a"))
    bridge.meas.bind(Signal("b"))
    report = verify(top)  # 10 ticks % rate 3 != 0
    assert [d.location for d in report.by_rule("SYNC002")] == \
        ["top.bridge.meas"]


def test_sync003_clock_undersampled():
    top = Module("top")
    clock = Clock("clk", SimTime(1, "us"), parent=top)
    bridge = Bridge("bridge", top, timestep=SimTime(5, "us"))
    bridge.cmd.bind(clock.signal)
    bridge.meas.bind(Signal("b"))
    report = verify(top)
    hits = report.by_rule("SYNC003")
    assert [d.location for d in hits] == ["top.bridge.cmd"]
    assert "missed" in hits[0].message


def test_sync003_incommensurate_clock():
    top = Module("top")
    clock = Clock("clk", SimTime(3, "us"), parent=top)
    bridge = Bridge("bridge", top, timestep=SimTime(2, "us"))
    bridge.cmd.bind(clock.signal)
    bridge.meas.bind(Signal("b"))
    report = verify(top)
    hits = report.by_rule("SYNC003")
    assert hits and "jitter" in hits[0].message


def test_sync003_commensurate_clock_is_clean():
    top = Module("top")
    clock = Clock("clk", SimTime(4, "us"), parent=top)
    bridge = Bridge("bridge", top, timestep=SimTime(2, "us"))
    bridge.cmd.bind(clock.signal)
    bridge.meas.bind(Signal("b"))
    report = verify(top)
    assert not report.by_rule("SYNC003")


def test_sync004_type_mismatch():
    top = Module("top")
    bridge = Bridge("bridge", top)
    bridge.cmd.bind(Signal("mode", initial="idle"))
    bridge.meas.bind(Signal("b"))
    report = verify(top)
    hits = report.by_rule("SYNC004")
    assert [d.location for d in hits] == ["top.bridge.cmd"]
    assert hits[0].severity == "warning"


# ---------------------------------------------------------------------------
# report / registry machinery
# ---------------------------------------------------------------------------

def test_report_sorting_counts_and_json():
    top = Module("top")
    Src("src", top)  # unbound port (error) + no timestep... one module
    top.method(lambda: None, sensitivity=(), dont_initialize=True,
               name="dead")
    report = verify(top)
    assert not report.ok
    severities = [d.severity for d in report]
    assert severities == sorted(
        severities, key=["error", "warning", "info"].index)
    counts = report.counts()
    assert counts["error"] >= 1 and counts["warning"] >= 1
    payload = json.loads(report.to_json())
    assert payload["schema"] == 2
    assert payload["ok"] is False
    assert payload["ruleset"] == ruleset_version()
    assert len(payload["diagnostics"]) == len(report)


def test_raise_if_errors_is_elaboration_error():
    top = Module("top")
    Src("src", top)
    report = verify(top)
    with pytest.raises(StaticVerificationError) as excinfo:
        report.raise_if_errors()
    assert isinstance(excinfo.value, ElaborationError)
    assert excinfo.value.report is report
    assert "TDF001" in str(excinfo.value)


def test_select_and_ignore_prefixes():
    top = Module("top")
    src = Src("src", top)          # TDF001 (unbound) + TDF005 family
    top.method(lambda: None, sensitivity=[object()], name="proc")
    full = verify(top)
    assert {d.rule[:3] for d in full} >= {"TDF", "COR"}
    only_tdf = verify(top, select=["TDF"])
    assert rules_of(only_tdf) and all(
        r.startswith("TDF") for r in rules_of(only_tdf))
    no_tdf = verify(top, ignore=["TDF"])
    assert not any(r.startswith("TDF") for r in rules_of(no_tdf))
    narrow = verify(top, select=["TDF"], ignore=["TDF001"])
    assert "TDF001" not in rules_of(narrow)


def test_every_rule_has_description_and_valid_severity():
    rules = all_rules()
    assert len(rules) >= 25
    for rule in rules.values():
        assert rule.description
        assert rule.severity in ("error", "warning", "info")


def test_ruleset_version_format():
    version = ruleset_version()
    assert version == ruleset_version()  # stable within a process
    epoch, _, digest = version.partition("-")
    assert epoch and len(digest) == 12


def test_verify_rejects_unknown_targets():
    with pytest.raises(TypeError):
        verify(42)


# ---------------------------------------------------------------------------
# Simulator integration
# ---------------------------------------------------------------------------

def test_simulator_verify_error_gates_elaboration():
    top = Module("top")
    Src("src", top)  # unbound TDF port
    simulator = Simulator(top, verify="error")
    with pytest.raises(StaticVerificationError):
        simulator.run(SimTime(1, "us"))


def test_simulator_verify_warn_logs_and_continues(caplog):
    top = clean_pair()
    top.method(lambda: None, sensitivity=(), dont_initialize=True,
               name="dead")  # CORE003 warning only
    simulator = Simulator(top, verify="warn")
    import logging

    with caplog.at_level(logging.WARNING, logger="repro.verify"):
        simulator.run(SimTime(5, "us"))
    assert simulator.verification_report is not None
    assert simulator.verification_report.ok
    assert any("CORE003" in message for message in caplog.messages)


def test_simulator_verify_off_by_default():
    simulator = Simulator(clean_pair())
    simulator.run(SimTime(5, "us"))
    assert simulator.verification_report is None


def test_simulator_rejects_bad_verify_mode():
    with pytest.raises(ValueError):
        Simulator(Module("top"), verify="loud")


# ---------------------------------------------------------------------------
# Module.path() and full-path binding errors (satellite bugfix)
# ---------------------------------------------------------------------------

def test_module_path_alias():
    top = Module("top")
    inner = Module("inner", parent=Module("mid", parent=top))
    assert inner.path() == "top.mid.inner" == inner.full_name()


def test_binding_error_includes_full_path():
    top = Module("top")
    leaf = Module("leaf", parent=Module("mid", parent=top))
    leaf.inp = InPort("inp")
    with pytest.raises(ElaborationError, match=r"top\.mid\.leaf"):
        Simulator(top).elaborate()


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------

def _campaign_build(params):
    if params["broken"]:
        top = Module("top")
        Src("src", top)  # unbound port -> verification error
    else:
        top = clean_pair()
        top.metrics = lambda: {"x": 1.0}
    return Simulator(top)


def _campaign(tmp_path, verify_mode="auto"):
    from repro.campaign.spec import FixedPoints

    return CampaignRunner(
        Campaign(
            name="preflight",
            space=FixedPoints([{"broken": False}, {"broken": True},
                               {"broken": False}]),
            build=_campaign_build,
            duration=SimTime(5, "us"),
            metrics=lambda top: {"x": 1.0},
            seed_key=None,
        ),
        out_dir=tmp_path, use_cache=False, retries=0,
        verify=verify_mode,
    )


def test_campaign_preflight_rejects_static_failures(tmp_path):
    runner = _campaign(tmp_path)
    results = runner.run()
    records = list(results)
    assert [r.status for r in records] == ["ok", "failed", "ok"]
    assert records[1].failure_kind == "static"
    assert "TDF001" in records[1].error
    # the broken point never reached a worker
    assert runner.stats["static"] == 1
    assert runner.stats["executed"] == 2
    assert runner.stats["failed"] == 1
    # and its verification report was persisted for postmortem
    diagnostic = json.loads(
        (tmp_path / "failures" / "run_00001.diagnostic.json")
        .read_text())
    assert diagnostic["failure_kind"] == "static"
    assert diagnostic["verification"]["ok"] is False


def test_campaign_preflight_off_dispatches_everything(tmp_path):
    runner = _campaign(tmp_path, verify_mode="off")
    results = runner.run()
    assert runner.stats["static"] == 0
    assert runner.stats["executed"] == 3
    # the broken point still fails, but only inside execution, where
    # elaboration raises
    assert [r.status for r in results] == ["ok", "failed", "ok"]
    assert list(results)[1].failure_kind == "permanent"


def test_cache_key_incorporates_ruleset():
    params = {"a": 1}
    base = cache_key("c", params, "v1")
    assert cache_key("c", params, "v1") == base          # 3-arg compat
    with_rules = cache_key("c", params, "v1", "rules-1")
    assert with_rules != base
    assert cache_key("c", params, "v1", "rules-2") != with_rules


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CLEAN_MODEL = textwrap.dedent("""\
    from repro.eln import Network, Resistor, Vsource

    def build_divider():
        net = Network("div")
        net.add(Vsource("V1", "in", "0"))
        net.add(Resistor("R1", "in", "out", 1e3))
        net.add(Resistor("R2", "out", "0", 1e3))
        return net
""")

BROKEN_MODEL = textwrap.dedent("""\
    from repro.eln import Network

    NET = Network("void")
""")

WARNING_MODEL = textwrap.dedent("""\
    from repro.eln import Network, Resistor, Vsource

    NET = Network("warn")
    NET.add(Vsource("V1", "in", "0"))
    NET.add(Resistor("R1", "in", "out", 1e3))   # "out" dangles
""")


def test_cli_clean_model_exits_zero(tmp_path, capsys):
    model = tmp_path / "clean_model.py"
    model.write_text(CLEAN_MODEL)
    assert verify_main([str(model)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_broken_model_exits_one(tmp_path, capsys):
    model = tmp_path / "broken_model.py"
    model.write_text(BROKEN_MODEL)
    assert verify_main([str(model)]) == 1
    assert "ELN008" in capsys.readouterr().out


def test_cli_explicit_target_and_json_schema(tmp_path, capsys):
    model = tmp_path / "named_model.py"
    model.write_text(BROKEN_MODEL)
    assert verify_main([f"{model}::NET", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    assert payload["ok"] is False
    assert payload["ruleset"] == ruleset_version()
    (report,) = payload["reports"]
    assert report["target"] == f"{model}::NET"
    (diag,) = report["diagnostics"]
    assert diag["rule"] == "ELN008"
    assert diag["severity"] == "error"
    assert set(diag) >= {"rule", "severity", "location", "message"}


def test_cli_strict_promotes_warnings(tmp_path, capsys):
    model = tmp_path / "warn_model.py"
    model.write_text(WARNING_MODEL)
    assert verify_main([str(model)]) == 0
    assert verify_main([str(model), "--strict"]) == 1


def test_cli_select_ignore(tmp_path, capsys):
    model = tmp_path / "warn2_model.py"
    model.write_text(WARNING_MODEL)
    # ignoring the whole ELN family silences the only findings
    assert verify_main([str(model), "--strict",
                        "--ignore", "ELN"]) == 0
    assert verify_main([str(model), "--strict",
                        "--select", "ELN001"]) == 1


def test_cli_output_file(tmp_path, capsys):
    model = tmp_path / "out_model.py"
    model.write_text(CLEAN_MODEL)
    out = tmp_path / "report.json"
    assert verify_main([str(model), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True


def test_cli_missing_file_exits_two(tmp_path, capsys):
    assert verify_main([str(tmp_path / "nope.py")]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_import_error_exits_two_and_unregisters(tmp_path, capsys):
    model = tmp_path / "broken_import_model.py"
    model.write_text("raise ValueError('bad model')\n")
    assert verify_main([str(model)]) == 2
    assert "ValueError: bad model" in capsys.readouterr().err
    assert "repro_verify_target_broken_import_model" not in sys.modules


def test_cli_bad_name_exits_two(tmp_path, capsys):
    model = tmp_path / "named2_model.py"
    model.write_text(CLEAN_MODEL)
    assert verify_main([f"{model}::Missing"]) == 2


def test_cli_list_rules(capsys):
    assert verify_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("TDF001", "ELN003", "SDF002", "SYNC001",
                    "CORE001"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# seed models regression: everything shipped in the repo verifies clean
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def example_path():
    inserted = [str(REPO / "examples"), str(REPO / "benchmarks" / "perf")]
    sys.path[:0] = inserted
    try:
        yield
    finally:
        for entry in inserted:
            sys.path.remove(entry)


def test_seed_examples_verify_clean(example_path):
    from dc_motor_hil import Rig, build_plant
    from quickstart import Testbench, build_rc
    from rf_receiver import Receiver

    for model in (Testbench(), build_rc(), Rig(), build_plant(),
                  Receiver()):
        report = verify(model)
        assert report.clean(), report.format_text()


def test_seed_perf_models_verify_clean(example_path):
    import models

    for name in ("build_adc_chain", "build_mixed_chain"):
        report = verify(getattr(models, name)())
        assert report.clean(), report.format_text()
