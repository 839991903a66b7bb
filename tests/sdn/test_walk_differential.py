"""The one hop loop against the per-packet walk it replaced.

``NetworkSimulator.run_trace`` is the only walk, and the totals of a call
are added once at its end.  It must do what
``walk_oracle.ParentWalkSimulator`` — the ``inject`` /
``_forward`` / ``_handle_table_miss`` walk before it — does: equal
``TrafficStats`` (every destination, the per-host counts in first-delivery
order, drops, PacketIn / FlowMod / PacketOut counts), the same controller
conversation (every PacketIn with its ingress port, and every answer) and
equal flow tables afterwards, entry by entry in install order.  Three
settings:

* the Q1–Q5 traces, under each scenario's buggy program and its first three
  explorer candidates, with the packet-out requirement on and off;
* Hypothesis-drawn topologies and tables covering flood, ``DROP_PORT``, a
  port with no link, an unknown ingress switch, a loop past ``max_hops``,
  ``require_packet_out=False`` and parallel links, behind a
  reactive controller whose answers are drawn too;
* one ``run_trace`` against chunked ``run_trace`` calls, down to one call
  per packet, and against the pieces an abort policy's check points cut.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backtest import EarlyAbortPolicy
from repro.meta import MetaProvenanceExplorer
from repro.repair import apply_candidate
from repro.scenarios import build_scenario
from repro.sdn.controller import (Controller, FlowMod, PacketOut,
                                  RecordingController, StaticController)
from repro.sdn.network import NetworkSimulator
from repro.sdn.packets import Packet
from repro.sdn.switch import DROP_PORT, FLOOD_PORT, FlowEntry
from repro.sdn.topology import Topology

from walk_oracle import ParentWalkSimulator

SCENARIOS = ("Q1", "Q2", "Q3", "Q4", "Q5")
#: The buggy program, then the explorer's first three candidates.
PROGRAMS = ("buggy", "candidate 1", "candidate 2", "candidate 3")
_scenarios = {}


def scenario_and_candidates(name):
    if name not in _scenarios:
        scenario = build_scenario(name)
        candidates = MetaProvenanceExplorer(
            scenario.program, scenario.history_index(), max_candidates=3,
        ).explore_missing(scenario.goal()).candidates
        assert len(candidates) == 3
        _scenarios[name] = scenario, candidates
    return _scenarios[name]


def controller_factory(name, program):
    """A function building a fresh controller for ``program`` of ``name``."""
    scenario, candidates = scenario_and_candidates(name)
    if program == "buggy":
        return scenario.build_controller
    repaired = apply_candidate(scenario.program,
                               candidates[PROGRAMS.index(program) - 1])
    return lambda: scenario.build_controller(
        program=repaired.program, extra_tuples=repaired.inserted_tuples)


def snapshot(simulator):
    """Everything a replay leaves behind that the two walks must agree on."""
    stats = simulator.stats
    recorder = simulator.controller
    tables = [(switch_id, switch.flow_table.entries())
              for switch_id, switch in sorted(
                  simulator.topology.switches.items())]
    return {
        "destinations": stats.destinations,
        "delivered_per_host": list(stats.delivered_per_host.items()),
        "counts": (stats.total, stats.dropped, stats.packet_in_count,
                   stats.flow_mod_count, stats.packet_out_count),
        "packet_ins": recorder.packet_ins,
        "responses": recorder.responses,
        "tables": tables,
    }


def pair(build_topology, build_controller, **options):
    """(one-loop simulator, oracle simulator) on fresh networks, each
    behind a recorder."""
    return tuple(
        walk(build_topology(), RecordingController(build_controller()),
             **options)
        for walk in (NetworkSimulator, ParentWalkSimulator))


@pytest.mark.parametrize("require_packet_out", [True, False],
                         ids=["strict", "lenient"])
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_scenario_trace_walks_as_before(name, program, require_packet_out):
    scenario, _ = scenario_and_candidates(name)
    trace = scenario.trace()
    one_loop, oracle = pair(scenario.build_topology,
                            controller_factory(name, program),
                            require_packet_out=require_packet_out,
                            record_ingress=False)
    one_loop.run_trace(trace)
    oracle.run_trace(trace)
    assert one_loop.stats.total == len(trace)
    assert snapshot(one_loop) == snapshot(oracle)


@pytest.mark.parametrize("chunk", [1, 3, 17, 64])
@pytest.mark.parametrize("name", SCENARIOS)
def test_chunked_and_per_packet_replays_equal_one_call(name, chunk):
    scenario, _ = scenario_and_candidates(name)
    trace = scenario.trace()
    whole, pieces = (
        NetworkSimulator(scenario.build_topology(),
                         RecordingController(scenario.build_controller()),
                         require_packet_out=scenario.require_packet_out)
        for _ in range(2))
    whole.run_trace(trace)
    for start in range(0, len(trace), chunk):
        pieces.run_trace(trace[start:start + chunk])
    assert snapshot(pieces) == snapshot(whole)
    assert [(r.switch_id, r.packet, r.in_port)
            for r in pieces.log.packet_records] == \
        [(r.switch_id, r.packet, r.in_port) for r in whole.log.packet_records]


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_trace_cut_at_abort_check_points_equals_one_call(name):
    """The backtester's replay under an abort policy: pieces cut at
    :meth:`EarlyAbortPolicy.check_points`, a short first piece included."""
    scenario, _ = scenario_and_candidates(name)
    trace = scenario.trace()
    whole, pieces = (
        NetworkSimulator(scenario.build_topology(),
                         RecordingController(scenario.build_controller()),
                         require_packet_out=scenario.require_packet_out)
        for _ in range(2))
    whole.run_trace(trace)
    cuts = EarlyAbortPolicy(check_every=8, min_fraction=0.1).check_points(
        len(trace))
    assert len(cuts) > 1
    done = 0
    for cut in (*cuts, len(trace)):
        pieces.run_trace(trace[done:cut])
        done = cut
    assert snapshot(pieces) == snapshot(whole)


# ---------------------------------------------------------------------------
# Drawn networks
# ---------------------------------------------------------------------------

SWITCHES = (1, 2, 3)
#: Host ids double as addresses; 9 is an address no host has.
HOSTS = (11, 12, 21, 31)
ADDRESSES = HOSTS + (9,)
#: Ports 1-4 may carry links, 5-6 hosts; 7 never has a link.
LINK_PORTS = (1, 2, 3, 4)
UNLINKED_PORT = 7


@st.composite
def networks(draw):
    """A topology builder's recipe: links (parallel ones allowed) and
    hosts, each on its own port."""
    used = set()
    links = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.sampled_from(SWITCHES)), draw(st.sampled_from(SWITCHES))
        pa, pb = draw(st.sampled_from(LINK_PORTS)), \
            draw(st.sampled_from(LINK_PORTS))
        if a == b or (a, pa) in used or (b, pb) in used:
            continue
        used |= {(a, pa), (b, pb)}
        links.append((a, pa, b, pb))
    hosts = []
    for host_id in HOSTS:
        switch_id = host_id // 10 if host_id // 10 in SWITCHES else 1
        port = draw(st.sampled_from((5, 6)))
        if (switch_id, port) in used:
            continue
        used.add((switch_id, port))
        hosts.append((switch_id, port, host_id))
    return links, hosts


def build(recipe):
    links, hosts = recipe
    topology = Topology(name="drawn")
    for switch_id in SWITCHES:
        topology.add_switch(switch_id)
    for link in links:
        topology.add_link(*link)
    for switch_id, port, host_id in hosts:
        topology.add_host(switch_id, port, host_id=host_id)
    return topology


out_ports = st.sampled_from(LINK_PORTS + (5, 6, UNLINKED_PORT, DROP_PORT,
                                          FLOOD_PORT))
matches = st.dictionaries(
    st.sampled_from(("dst_ip", "src_ip", "dst_port", "in_port")),
    st.sampled_from((11, 12, 21, 31, 80, 1, 5, "*")), max_size=2)
entries = st.builds(
    lambda match, out_port, priority: FlowEntry.create(
        match, out_port, priority=priority),
    matches, out_ports, st.integers(1, 3))
flow_mods = st.lists(st.builds(FlowMod, st.sampled_from(SWITCHES + (4,)),
                               entries), max_size=12)
packet_outs = st.builds(lambda switch_id, port: (switch_id, port),
                        st.sampled_from(SWITCHES), out_ports)


class DrawnController(Controller):
    """Answers a PacketIn by its ``(switch, destination)`` from a drawn
    table: some flow mods and packet-outs (the packet-outs carry the
    packet), or nothing.  Pure of the event, so two instances answer two
    walks alike."""

    def __init__(self, proactive, answers):
        self.proactive = proactive
        self.answers = answers

    def on_start(self, network):
        return list(self.proactive)

    def handle_packet_in(self, event):
        mods, outs = self.answers.get(
            (event.switch_id, event.packet.dst_ip), ((), ()))
        return list(mods) + [PacketOut(switch_id, port, event.packet)
                             for switch_id, port in outs]


answers = st.dictionaries(
    st.tuples(st.sampled_from(SWITCHES), st.sampled_from(ADDRESSES)),
    st.tuples(st.lists(st.builds(FlowMod, st.sampled_from(SWITCHES), entries),
                       max_size=2),
              st.lists(packet_outs, max_size=2)),
    max_size=10)
packets = st.builds(
    lambda src, dst, port: Packet(src_ip=src, dst_ip=dst, dst_port=port),
    st.sampled_from(ADDRESSES), st.sampled_from(ADDRESSES),
    st.sampled_from((80, 1)))
#: Ingress switch 99 is no switch of the topology.
traces = st.lists(st.tuples(st.sampled_from(SWITCHES + (99,)), packets),
                  max_size=30)


@settings(max_examples=150, deadline=None)
@given(recipe=networks(), proactive=flow_mods, reactive=answers,
       trace=traces, require_packet_out=st.booleans(),
       max_hops=st.integers(1, 6))
def test_a_drawn_network_walks_as_before(recipe, proactive, reactive, trace,
                                         require_packet_out, max_hops):
    one_loop, oracle = pair(
        lambda: build(recipe), lambda: DrawnController(proactive, reactive),
        require_packet_out=require_packet_out, max_hops=max_hops)
    one_loop.run_trace(trace)
    oracle.run_trace(trace)
    assert snapshot(one_loop) == snapshot(oracle)
    assert one_loop.log.clock == oracle.log.clock == len(trace)


@settings(max_examples=60, deadline=None)
@given(recipe=networks(), proactive=flow_mods, trace=traces,
       cuts=st.lists(st.integers(0, 30), max_size=4))
def test_a_drawn_trace_walks_alike_in_any_chunking(recipe, proactive, trace,
                                                   cuts):
    whole, pieces = (
        NetworkSimulator(build(recipe),
                         RecordingController(StaticController(proactive)),
                         max_hops=4)
        for _ in range(2))
    whole.run_trace(trace)
    bounds = sorted({0, len(trace), *(cut for cut in cuts
                                       if cut < len(trace))})
    for start, end in zip(bounds, bounds[1:]):
        pieces.run_trace(trace[start:end])
    assert snapshot(pieces) == snapshot(whole)


def test_a_loop_past_max_hops_is_a_drop():
    """Two switches forwarding to each other: the walk gives up after
    ``max_hops`` lookups, exactly as the per-packet walk did."""
    def two_switches():
        topology = Topology(name="loop")
        topology.add_link(1, 1, 2, 1)
        return topology

    loop = [FlowMod(1, FlowEntry.create({}, 1)),
            FlowMod(2, FlowEntry.create({}, 1))]
    one_loop, oracle = pair(two_switches, lambda: StaticController(loop),
                            max_hops=5)
    packet = Packet(src_ip=9, dst_ip=9)
    assert one_loop.run_trace([(1, packet)]).destinations == \
        oracle.run_trace([(1, packet)]).destinations == [-1]
    assert snapshot(one_loop)["counts"] == snapshot(oracle)["counts"] == \
        (1, 1, 0, 2, 0)
