"""The dataflow analysis behind SDF graphs and TDF clusters.

Both models of computation rest on one static analysis.  The balance
equations

    r[src] * produce == r[dst] * consume

give the repetition vector, and a symbolic execution of token counts
over whole periods gives a static schedule (a periodic admissible
sequential schedule, PASS) or shows a deadlock.
:class:`~repro.sdf.SdfGraph`, TDF cluster elaboration and the static
verifier all call the functions here, so the simulator and the
verifier cannot reach different verdicts on the same graph.

Every function is pure.  A graph is a sequence of ``nodes`` (any
hashable keys) and a sequence of edge tuples
``(src, produce, dst, consume, initial_tokens)`` between them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, NamedTuple, Sequence

#: ``(src, produce, dst, consume, initial_tokens)``.
Edge = tuple


class Balance(NamedTuple):
    """Solution of the balance equations."""

    #: Smallest positive integer firings per node; empty on conflicts.
    repetitions: dict
    #: ``(node, ratio, implied_ratio)`` for every edge that contradicts
    #: the relative firing ratio already assigned to ``node``.
    conflicts: list


class TokenRun(NamedTuple):
    """Outcome of a symbolic token execution."""

    #: Run-length-encoded firing order ``(node, firings, fusable)``.
    #: ``fusable`` is True when every input edge held the whole run's
    #: demand before the run started, so the run may execute as one
    #: block.
    runs: list
    #: Nodes left with firings to do (a deadlock), in ``nodes`` order.
    stuck: list
    #: Largest token count reached on each edge, aligned with ``edges``.
    peak: list


def solve_balance(nodes: Sequence[Hashable],
                  edges: Sequence[Edge]) -> Balance:
    """Solve the balance equations by ratio propagation.

    Each connected component is seeded at its first node in ``nodes``
    order and explored depth first; every edge whose implied ratio
    contradicts an assigned one is recorded, so the first conflict is
    the one a raising caller reports.
    """
    ratio: dict = {node: None for node in nodes}
    adjacency: dict = {node: [] for node in nodes}
    for src, produce, dst, consume, _tokens in edges:
        factor = Fraction(produce, consume)
        adjacency[src].append((dst, factor))
        adjacency[dst].append((src, 1 / factor))
    conflicts = []
    for seed in nodes:
        if ratio[seed] is not None:
            continue
        ratio[seed] = Fraction(1)
        stack = [seed]
        while stack:
            node = stack.pop()
            for neighbor, factor in adjacency[node]:
                implied = ratio[node] * factor
                if ratio[neighbor] is None:
                    ratio[neighbor] = implied
                    stack.append(neighbor)
                elif ratio[neighbor] != implied:
                    conflicts.append((neighbor, ratio[neighbor], implied))
    if conflicts:
        return Balance({}, conflicts)
    scale = lcm(*(value.denominator for value in ratio.values()))
    counts = {node: int(value * scale) for node, value in ratio.items()}
    common = gcd(*counts.values()) or 1
    return Balance({node: c // common for node, c in counts.items()}, [])


def simulate(nodes: Sequence[Hashable], edges: Sequence[Edge],
             repetitions: dict, periods: int = 1) -> TokenRun:
    """Greedy token execution of ``periods`` schedule periods.

    Passes sweep ``nodes`` in order; each node fires as many times in a
    row as its input tokens and remaining repetitions allow, until a
    pass fires nothing.  A run's length is computed in closed form
    rather than firing by firing, so the cost grows with the number of
    runs, not with the repetition counts.
    """
    tokens = [edge[4] for edge in edges]
    peak = list(tokens)
    remaining = {node: repetitions[node] * periods for node in nodes}
    #: per node: (edge, tokens consumed per firing).
    inputs: dict = {node: [] for node in nodes}
    #: per node: {edge: net token change per firing}.
    changes: dict = {node: {} for node in nodes}
    for k, (src, produce, dst, consume, _tokens) in enumerate(edges):
        inputs[dst].append((k, consume))
        changes[src][k] = changes[src].get(k, 0) + produce
        changes[dst][k] = changes[dst].get(k, 0) - consume
    runs: list = []
    progress = True
    while progress and any(remaining.values()):
        progress = False
        for node in nodes:
            fired = remaining[node]
            for k, need in inputs[node]:
                if tokens[k] < need:
                    fired = 0
                    break
                # A self-loop refunds part of each firing's demand.
                drain = -changes[node][k]
                if drain > 0:
                    fired = min(fired, (tokens[k] - need) // drain + 1)
            if not fired:
                continue
            progress = True
            fusable = all(tokens[k] >= fired * need
                          for k, need in inputs[node])
            for k, change in changes[node].items():
                tokens[k] += fired * change
                if change > 0:
                    peak[k] = max(peak[k], tokens[k])
            remaining[node] -= fired
            if runs and runs[-1][0] == node:
                runs[-1] = (node, runs[-1][1] + fired, False)
            else:
                runs.append((node, fired, fusable))
    stuck = [node for node in nodes if remaining[node]]
    return TokenRun(runs, stuck, peak)


def dependency_graph(nodes: Sequence[Hashable], edges: Sequence[Edge]):
    """The networkx DiGraph of edges holding fewer initial tokens than
    one consumer firing needs."""
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(nodes)
    for src, _produce, dst, consume, initial_tokens in edges:
        if initial_tokens < consume:
            digraph.add_edge(src, dst)
    return digraph


def zero_delay_cycles(nodes: Sequence[Hashable],
                      edges: Sequence[Edge]) -> list:
    """Sorted node lists of the cycles in :func:`dependency_graph` —
    the structural cause of deadlocks.  Nodes must be orderable
    (callers pass names)."""
    import networkx as nx

    return [sorted(cycle)
            for cycle in nx.simple_cycles(dependency_graph(nodes, edges))]
