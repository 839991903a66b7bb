"""NDlogController.handle_packet_in_batch: sequential-equivalent responses."""

import pytest

from repro.controllers.batching import (
    batch_replay_safe,
    data_wildcard_free,
    engine_batch_safe,
    probe_exact,
)
from repro.ndlog.ast import WILDCARD
from repro.ndlog.tuples import NDTuple
from repro.scenarios import build_scenario
from repro.sdn import FlowMod, PacketOut
from repro.sdn.controller import PacketInEvent

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def _ingress_events(scenario):
    return [PacketInEvent(switch_id=switch_id, packet=packet)
            for switch_id, packet in scenario.trace()]


def _normalise(messages):
    """Structural view of control messages (FlowEntry ids are per-instance)."""
    out = []
    for message in messages:
        if isinstance(message, FlowMod):
            entry = message.entry
            out.append(("flowmod", message.switch_id, entry.match,
                        entry.out_port, entry.priority, entry.tags))
        elif isinstance(message, PacketOut):
            out.append(("packetout", message.switch_id, message.port,
                        message.packet))
        else:
            out.append(("other", message))
    return out


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("batch_size", [1, 3, 16, 1000])
def test_batch_responses_match_sequential(name, batch_size):
    scenario = build_scenario(name)
    events = _ingress_events(scenario)

    sequential_controller = scenario.build_controller()
    sequential = [_normalise(sequential_controller.handle_packet_in(event))
                  for event in events]

    batch_controller = scenario.build_controller()
    batched = []
    for start in range(0, len(events), batch_size):
        burst = events[start:start + batch_size]
        for event, response in zip(
                burst, batch_controller.handle_packet_in_batch(burst)):
            batched.append(_normalise(response.messages_for(event.packet)))

    assert batched == sequential
    # Both engines end in the same state.
    assert batch_controller.engine.database.derived_tuples() == \
        sequential_controller.engine.database.derived_tuples()


def test_safety_analysis_verdicts():
    """The static analysis classifies the five case studies as designed:
    Q5's PacketIn-Learned join (keyed table, wildcard head) is unsafe at
    both levels; the PacketIn-only programs are fully batchable."""
    for name in SCENARIOS:
        scenario = build_scenario(name)
        schemas = {s.name: s for s in scenario.schemas()}
        engine_safe = engine_batch_safe(
            scenario.program, scenario.mapping.packet_in_table,
            scenario.mapping.packet_out_table, schemas)
        replay_safe = batch_replay_safe(scenario.program, scenario.mapping,
                                        schemas)
        if name == "Q5":
            assert not engine_safe and not replay_safe
        else:
            assert engine_safe and replay_safe


def test_probe_exact_rejects_wildcard_heads():
    scenario = build_scenario("Q5")
    assert not probe_exact(scenario.program, scenario.mapping)


def test_wildcard_static_data_opts_out_of_batched_replay():
    """A repair can inject wildcards through *data* (InsertTuple edits):
    a '*' value in a body-joined table can unify into a flow-entry match
    column, so such candidates must fall back to per-packet replay."""
    scenario = build_scenario("Q1")
    poisoned = NDTuple("WebLoadBalancer", ("C", WILDCARD, 2))
    assert data_wildcard_free(scenario.program, scenario.mapping,
                              scenario.static_tuples)
    assert not data_wildcard_free(scenario.program, scenario.mapping,
                                  scenario.static_tuples + [poisoned])
    controller = scenario.build_controller(extra_tuples=[poisoned])
    assert controller.batch_replay_adapter() is None
    # A wildcard directly in the flow table is installed at on_start (before
    # any burst is probed) and stays eligible.
    flow_static = NDTuple("FlowTable", (3, WILDCARD, 80, 2))
    eligible = scenario.build_controller(extra_tuples=[flow_static])
    assert eligible.batch_replay_adapter() is not None


def test_cross_key_installer_opts_out_of_batched_replay():
    """A rule may install an entry for a *different* key than the triggering
    packet's (constant match value, foreign switch, reshuffled fields).
    Mid-burst such installs can change another key's hit/miss fate, so
    probe_exact must reject them — head match/switch columns have to be the
    exact variables the rule's PacketIn atom binds."""
    from repro.ndlog.parser import parse_program
    scenario = build_scenario("Q1")
    base = scenario.program_source
    for extra, why in (
            ("x1 FlowTable(@Swi,Sip,Hdr2,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
             "Hdr == 80, Hdr2 := 443, Prt := 2.", "constant match column"),
            ("x2 FlowTable(@Swi2,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
             "Swi2 := 4, Prt := 2.", "foreign switch column"),
            ("x3 FlowTable(@Swi,Hdr,Sip,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
             "Prt := 2.", "swapped match columns")):
        poisoned = parse_program(base + "\n" + extra)
        assert not probe_exact(poisoned, scenario.mapping), why
    assert probe_exact(parse_program(base), scenario.mapping)


def test_unsafe_program_still_answers_batches():
    """Q5 falls back to per-event insertion inside handle_packet_in_batch."""
    scenario = build_scenario("Q5")
    events = _ingress_events(scenario)[:10]
    sequential_controller = scenario.build_controller()
    sequential = [_normalise(sequential_controller.handle_packet_in(event))
                  for event in events]
    batch_controller = scenario.build_controller()
    responses = batch_controller.handle_packet_in_batch(events)
    batched = [_normalise(response.messages_for(event.packet))
               for event, response in zip(events, responses)]
    assert batched == sequential
