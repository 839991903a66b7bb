"""The fate memo of ``run_trace`` against the walk that has none.

Within one call, ``NetworkSimulator.run_trace`` remembers the destination
of each (ingress switch, headers) it walked, unless a table miss of that
walk moved the controller's ``version`` or was answered with a message,
and a repeat of the packet takes the remembered fate instead of walking.
``tests/sdn/test_walk_differential.py`` cannot see the part of this that
skips the controller: each of its controllers sits behind a
``RecordingController``, whose ``version`` is ``None``, so no walk that
raised a PacketIn is remembered there.  Here the controllers are bare and
versioned, and the replay must still equal
``walk_oracle.ParentWalkSimulator``, which walks every packet and asks the
controller on every miss:

* ``TrafficStats`` — every destination, the per-host counts, and the five
  counts (packets, drops, PacketIns, FlowMods, PacketOuts);
* every flow table, entry by entry in install order;
* the controller's state: for an ``NDlogController`` its engine's tuples
  (base and derived, in store order) and its ``version``.

Two settings: unwrapped ``NDlogController``s over Q1–Q5's traces repeated
three times, under each scenario's buggy program and its first three
explorer candidates, with the packet-out requirement on and off (and in
chunks); and a Hypothesis-drawn stateful controller that bumps ``version``
whenever its answers change, whose answers between bumps may be empty or
not.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controllers import NDlogController
from repro.sdn.controller import Controller, PacketOut
from repro.sdn.network import NetworkSimulator

from test_walk_differential import (PROGRAMS, SCENARIOS, SWITCHES,
                                    answers, build, controller_factory,
                                    flow_mods, networks,
                                    scenario_and_candidates, traces)
from walk_oracle import ParentWalkSimulator


def state_of(simulator):
    """What a replay leaves behind, without the controller conversation
    (the memo asks the controller less often, by design)."""
    stats = simulator.stats
    controller = simulator.controller
    state = {
        "destinations": stats.destinations,
        "delivered_per_host": list(stats.delivered_per_host.items()),
        "counts": (stats.total, stats.dropped, stats.packet_in_count,
                   stats.flow_mod_count, stats.packet_out_count),
        "tables": [(switch_id, switch.flow_table.entries())
                   for switch_id, switch in sorted(
                       simulator.topology.switches.items())],
        "version": controller.version,
    }
    if isinstance(controller, NDlogController):
        database = controller.engine.database
        state["engine"] = (database.base_in_order(),
                           database.derived_in_order())
    else:
        state["controller"] = controller.state
    return state


def versioned_pair(build_topology, build_controller, **options):
    """(memo simulator, oracle simulator) on fresh networks, each behind a
    fresh bare controller."""
    return tuple(walk(build_topology(), build_controller(), **options)
                 for walk in (NetworkSimulator, ParentWalkSimulator))


@pytest.mark.parametrize("require_packet_out", [True, False],
                         ids=["strict", "lenient"])
@pytest.mark.parametrize("program", PROGRAMS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_repeated_scenario_trace_walks_as_before(name, program,
                                                   require_packet_out):
    scenario, _ = scenario_and_candidates(name)
    trace = scenario.trace() * 3
    memo, oracle = versioned_pair(scenario.build_topology,
                                  controller_factory(name, program),
                                  require_packet_out=require_packet_out,
                                  record_ingress=False)
    assert memo.controller.version == 0
    memo.run_trace(trace)
    oracle.run_trace(trace)
    assert memo.stats.total == len(trace)
    assert state_of(memo) == state_of(oracle)


@pytest.mark.parametrize("chunk", [1, 17, 100])
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_repeated_trace_in_chunks_walks_as_before(name, chunk):
    scenario, _ = scenario_and_candidates(name)
    trace = scenario.trace() * 3
    memo, oracle = versioned_pair(
        scenario.build_topology, scenario.build_controller,
        require_packet_out=scenario.require_packet_out)
    for start in range(0, len(trace), chunk):
        memo.run_trace(trace[start:start + chunk])
    oracle.run_trace(trace)
    assert state_of(memo) == state_of(oracle)
    assert [(r.switch_id, r.packet, r.in_port)
            for r in memo.log.packet_records] == \
        [(r.switch_id, r.packet, r.in_port)
         for r in oracle.log.packet_records]


# ---------------------------------------------------------------------------
# A drawn stateful controller
# ---------------------------------------------------------------------------

class PhasedController(Controller):
    """Answers a PacketIn by its ``(phase, switch, destination)`` from a
    drawn table, and enters the next of two phases on each PacketIn for a
    drawn ``(switch, destination)``, bumping ``version``: its answers
    change only when ``version`` moves.  A phase's answers may be empty
    (the memo may then skip the controller) or carry messages (it may not).
    """

    def __init__(self, proactive, phases, switches):
        self.proactive = proactive
        self.phases = phases
        self.switches = switches
        self.version = 0
        self.state = 0

    def on_start(self, network):
        return list(self.proactive)

    def handle_packet_in(self, event):
        key = (event.switch_id, event.packet.dst_ip)
        if key in self.switches:
            self.state += 1
            self.version += 1
        mods, outs = self.phases[self.state % 2].get(key, ((), ()))
        return list(mods) + [PacketOut(switch_id, port, event.packet)
                             for switch_id, port in outs]


@settings(max_examples=150, deadline=None)
@given(recipe=networks(), proactive=flow_mods,
       phases=st.tuples(answers, answers),
       switches=st.sets(st.tuples(st.sampled_from(SWITCHES),
                                  st.sampled_from((11, 12, 21, 31, 9))),
                        max_size=3),
       trace=traces, repeats=st.integers(1, 3),
       require_packet_out=st.booleans(), max_hops=st.integers(1, 6))
def test_a_drawn_stateful_controller_walks_as_before(
        recipe, proactive, phases, switches, trace, repeats,
        require_packet_out, max_hops):
    memo, oracle = versioned_pair(
        lambda: build(recipe),
        lambda: PhasedController(proactive, phases, switches),
        require_packet_out=require_packet_out, max_hops=max_hops)
    memo.run_trace(trace * repeats)
    oracle.run_trace(trace * repeats)
    assert state_of(memo) == state_of(oracle)
    assert memo.log.clock == oracle.log.clock == len(trace) * repeats
