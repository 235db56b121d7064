"""Property-based tests for TDF cluster elaboration invariants, and
differential oracles holding the static verifier to the verdicts of
TDF elaboration and SDF scheduling on generated models."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    ElaborationError,
    Module,
    SchedulingError,
    SimTime,
    Simulator,
)
from repro.sdf import Actor, SdfGraph
from repro.tdf import TdfIn, TdfModule, TdfOut, TdfSignal
from repro.verify import verify
from repro.verify.context import build_context


class RateBlock(TdfModule):
    """Consumes ``in_rate`` tokens and produces ``out_rate`` per firing."""

    def __init__(self, name, parent=None, in_rate=1, out_rate=1):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=in_rate)
        self.out = TdfOut("out", rate=out_rate)

    def processing(self):
        values = [self.inp.read(k) for k in range(self.inp.rate)]
        total = float(np.sum(values))
        for k in range(self.out.rate):
            self.out.write(total, k)


class HeadSource(TdfModule):
    def __init__(self, name, parent=None, rate=1, timestep=None):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=rate)
        self._ts = timestep
        self.count = 0

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        for k in range(self.out.rate):
            self.out.write(float(self.count), k)
            self.count += 1


class TailSink(TdfModule):
    def __init__(self, name, parent=None, rate=1):
        super().__init__(name, parent)
        self.inp = TdfIn("inp", rate=rate)
        self.received = 0

    def processing(self):
        for k in range(self.inp.rate):
            self.inp.read(k)
            self.received += 1


@st.composite
def rate_chains(draw):
    return draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        min_size=1, max_size=4,
    ))


@given(rate_chains(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_timestep_propagation_invariants(chain, src_rate):
    """In any consistent chain: module_timestep * repetitions is the
    same (the cluster period) for every module, every port timestep
    divides its module timestep by the rate, and token conservation
    holds over whole periods."""

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.src = HeadSource("src", self, rate=src_rate,
                                  timestep=SimTime(8, "us"))
            previous_port = self.src.out
            self.blocks = []
            for k, (in_rate, out_rate) in enumerate(chain):
                block = RateBlock(f"b{k}", self, in_rate, out_rate)
                sig = TdfSignal(f"s{k}")
                previous_port(sig)
                block.inp(sig)
                previous_port = block.out
                self.blocks.append(block)
            self.sink = TailSink("sink", self)
            sig = TdfSignal("s_end")
            previous_port(sig)
            self.sink.inp(sig)

    top = Top()
    sim = Simulator(top)
    try:
        sim.run(SimTime(400, "us"))
    except ElaborationError as exc:
        # Some random rate combinations make a timestep that is not an
        # integer number of femtosecond ticks — correctly rejected at
        # elaboration; filter those examples.
        assume("divisible" not in str(exc))
        raise
    registry = sim._tdf_registry
    assert len(registry.clusters) == 1
    cluster = registry.clusters[0]
    period = cluster.period.ticks
    for module in cluster.modules:
        reps = cluster.repetitions[id(module)]
        # The defining invariant of timestep propagation.
        assert module.timestep.ticks * reps == period
        for port in module.tdf_ports():
            assert port.timestep.ticks * port.rate == \
                module.timestep.ticks
    # Token conservation across the chain over completed periods: the
    # sink consumed exactly what the source produced for the periods
    # both completed.
    produced = top.src.count
    consumed = top.sink.received
    # Rates along the chain scale the counts.
    scale = 1.0
    for in_rate, out_rate in chain:
        scale *= out_rate / in_rate
    # Both counts correspond to an integer number of periods.
    assert consumed == int(round(produced * scale))


@given(st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_two_module_rate_ratio(prod_rate, cons_rate):
    """Producer/consumer activation counts follow the balance equation
    regardless of the rate pair."""

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            self.src = HeadSource("src", self, rate=prod_rate,
                                  timestep=SimTime(6, "us"))
            self.sink = TailSink("sink", self, rate=cons_rate)
            sig = TdfSignal("s")
            self.src.out(sig)
            self.sink.inp(sig)

    top = Top()
    sim = Simulator(top)
    sim.run(SimTime(360, "us"))
    from math import gcd

    g = gcd(prod_rate, cons_rate)
    src_reps = cons_rate // g
    sink_reps = prod_rate // g
    cluster = sim._tdf_registry.clusters[0]
    assert cluster.repetitions[id(top.src)] == src_reps
    assert cluster.repetitions[id(top.sink)] == sink_reps
    # Activation counts over N whole periods keep the exact ratio.
    periods = cluster.period_count
    assert top.src.activation_count == src_reps * periods
    assert top.sink.activation_count == sink_reps * periods


# ---------------------------------------------------------------------------
# differential oracle: the static verifier agrees with elaboration
# ---------------------------------------------------------------------------

class Node(TdfModule):
    """Reads every sample of its in-ports, writes every out-port sample;
    ports are attached by the test after construction."""

    def __init__(self, name, parent=None, timestep=None):
        super().__init__(name, parent)
        self._ts = timestep

    def set_attributes(self):
        if self._ts is not None:
            self.set_timestep(self._ts)

    def processing(self):
        for port in self.tdf_ports():
            for k in range(port.rate):
                if isinstance(port, TdfIn):
                    port.read(k)
                else:
                    port.write(0.0, k)


#: Verifier rules covering what cluster elaboration rejects.
CLUSTER_RULES = {"TDF004", "TDF005", "TDF006", "TDF007", "TDF008"}

_rates = st.integers(1, 4)
#: Delays of 0-2 samples, biased to 0 so that feedback loops often
#: lack the initial samples they need.
_delays = st.just(0) | st.integers(0, 2)


@st.composite
def tdf_clusters(draw):
    """A multi-rate chain of 2-5 modules, an optional feedback edge from
    the last module to the first, a timestep on the first module and an
    optional second (possibly conflicting) one elsewhere.

    Chain rates derive from drawn per-module firing counts ``q`` (module
    k writes ``q[k + 1]`` samples for every ``q[k]`` its successor
    reads), so a feedback edge can be drawn balanced — exposing
    deadlocks — as well as with arbitrary, usually conflicting rates.
    """
    size = draw(st.integers(2, 5))
    q = draw(st.lists(_rates, min_size=size, max_size=size))
    links = [(q[k + 1], draw(_delays), q[k], 0) for k in range(size - 1)]
    balanced = st.tuples(st.just(q[0]), _delays, st.just(q[-1]), _delays)
    arbitrary = st.tuples(_rates, _delays, _rates, _delays)
    feedback = draw(st.none() | balanced | arbitrary)
    unit = draw(st.sampled_from(["fs", "ns"]))
    first = draw(st.integers(1, 12))
    second = draw(st.none() | st.tuples(st.integers(1, size - 1),
                                        st.integers(1, 12)))
    return size, links, feedback, unit, first, second


def _build_cluster(size, links, feedback, unit, first, second):
    timesteps = [SimTime(first, unit)] + [None] * (size - 1)
    if second is not None:
        index, ticks = second
        timesteps[index] = SimTime(ticks, unit)
    top = Module("top")
    nodes = [Node(f"n{k}", top, ts) for k, ts in enumerate(timesteps)]
    wires = [(nodes[k], nodes[k + 1], link)
             for k, link in enumerate(links)]
    if feedback is not None:
        wires.append((nodes[-1], nodes[0], feedback))
    for k, (writer, reader, link) in enumerate(wires):
        out_rate, out_delay, in_rate, in_delay = link
        out = TdfOut(f"out{k}", rate=out_rate, delay=out_delay)
        inp = TdfIn(f"in{k}", rate=in_rate, delay=in_delay)
        setattr(writer, f"out{k}", out)
        setattr(reader, f"in{k}", inp)
        sig = TdfSignal(f"s{k}")
        out(sig)
        inp(sig)
    return top


@given(tdf_clusters())
@settings(max_examples=150, deadline=None)
def test_verifier_agrees_with_tdf_elaboration(model):
    """TDF004-TDF008 fire exactly when elaboration fails, with the
    error elaboration raises; on success the verifier's repetitions and
    period are the elaborated cluster's."""
    top = _build_cluster(*model)
    (analysis,) = build_context(top).clusters
    report = verify(top)
    flagged = [d for d in report.errors if d.rule in CLUSTER_RULES]
    sim = Simulator(top)
    try:
        sim.elaborate()
    except (ElaborationError, SchedulingError) as exc:
        assert any(d.message.startswith(str(exc)) for d in flagged)
        return
    assert not flagged
    (cluster,) = sim._tdf_registry.clusters
    assert {id(m): n for m, n in analysis.repetitions.items()} == \
        cluster.repetitions
    assert analysis.period_ticks == cluster.period.ticks


class Generic(Actor):
    """Emits zeros on every output port."""

    def fire(self, inputs):
        return {port: [0.0] * rate
                for port, rate in self.output_rates.items()}


@st.composite
def sdf_graphs(draw):
    """1-5 actors joined by up to 7 random edges (self-loops and
    feedback included) carrying 0-3 initial tokens.  Edge rates are
    either arbitrary or balanced against drawn per-actor firing counts
    ``q`` (an edge a -> b produces ``q[b]`` and consumes ``q[a]``)."""
    size = draw(st.integers(1, 5))
    q = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    balanced = draw(st.booleans())
    edges = []
    for src, dst, tokens in draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1),
                      st.just(0) | st.integers(0, 3)), max_size=7)):
        produce, consume = ((q[dst], q[src]) if balanced
                            else (draw(_rates), draw(_rates)))
        edges.append((src, produce, dst, consume, tokens))
    return size, edges


@given(sdf_graphs())
@settings(max_examples=150, deadline=None)
def test_verifier_agrees_with_sdf_schedule(model):
    """SDF001/SDF002 fire exactly when schedule() raises; otherwise a
    real period's buffer occupancy matches the predicted peaks."""
    size, edges = model
    outputs = [{} for _ in range(size)]
    inputs = [{} for _ in range(size)]
    for k, (src, produce, dst, consume, _tokens) in enumerate(edges):
        outputs[src][f"o{k}"] = produce
        inputs[dst][f"i{k}"] = consume
    actors = [Generic(f"a{k}", inputs[k], outputs[k])
              for k in range(size)]
    graph = SdfGraph("g")
    for actor in actors:
        graph.add(actor)
    for k, (src, _produce, dst, _consume, tokens) in enumerate(edges):
        graph.connect(actors[src], f"o{k}", actors[dst], f"i{k}",
                      initial_tokens=[0.0] * tokens)
    report = verify(graph)
    flagged = report.by_rule("SDF001") + report.by_rule("SDF002")
    try:
        graph.schedule()
    except SchedulingError:
        assert flagged
        return
    assert not flagged
    peak = graph.token_run().peak
    graph.run(1)
    assert [e.max_occupancy for e in graph.edges] == peak
