"""Tests for the NDlog controller front end."""

import pytest

from repro.controllers import (
    FIGURE2_MAPPING,
    FIVE_TUPLE_MAPPING,
    NDlogController,
    engine_batch_safe,
)
from repro.ndlog import make_tuple, parse_program
from repro.sdn import FlowMod, PacketOut
from repro.sdn.controller import PacketInEvent
from repro.scenarios import build_scenario
from repro.sdn.packets import Packet, http_request

from recording_oracle import RecordingNDlogController, history_from_engine
from helpers import history_tables

FIG2 = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
"""


class TestNDlogController:
    def test_flow_mod_and_auto_packet_out(self):
        controller = NDlogController(
            parse_program(FIG2), FIGURE2_MAPPING,
            static_tuples=[make_tuple("WebLoadBalancer", "C", 80, 2)])
        event = PacketInEvent(1, http_request(100, 11), in_port=10)
        messages = controller.handle_packet_in(event)
        flow_mods = [m for m in messages if isinstance(m, FlowMod)]
        packet_outs = [m for m in messages if isinstance(m, PacketOut)]
        assert flow_mods and flow_mods[0].switch_id == 1
        assert flow_mods[0].entry.out_port == 2
        assert packet_outs and packet_outs[0].port == 2

    def test_no_match_means_no_messages(self):
        controller = NDlogController(parse_program(FIG2), FIGURE2_MAPPING)
        event = PacketInEvent(3, http_request(100, 11))
        assert controller.handle_packet_in(event) == []

    def test_on_start_installs_static_flow_tuples(self):
        controller = NDlogController(
            parse_program(FIG2), FIGURE2_MAPPING,
            static_tuples=[make_tuple("FlowTable", 3, 80, 2)])
        messages = controller.on_start(None)
        assert len(messages) == 1
        assert messages[0].switch_id == 3

    def test_on_start_installs_in_value_order(self):
        """Equal-priority entries match in installation order, so on_start
        must not emit them in the engine's (hash) set order — and a
        wildcard next to a constant in one column must still sort."""
        flows = [make_tuple("FlowTable", 3, "*", 2),
                 make_tuple("FlowTable", 3, 80, 1),
                 make_tuple("FlowTable", 3, "*", 1)]
        for static in (flows, flows[::-1]):
            controller = NDlogController(parse_program(FIG2), FIGURE2_MAPPING,
                                         static_tuples=static)
            assert [t.values for t in controller.flow_table_tuples()] == \
                [(3, 80, 1), (3, "*", 1), (3, "*", 2)]
            messages = controller.on_start(None)
            assert [m.entry.out_port for m in messages] == [1, 1, 2]
            assert [m.entry.priority for m in messages] == \
                [messages[0].entry.priority] * 3

    def test_five_tuple_mapping_builds_packet_in(self):
        packet = Packet(src_ip=7, dst_ip=9, src_port=1000, dst_port=80)
        tup = FIVE_TUPLE_MAPPING.packet_in_tuple_from(4, packet, in_port=3)
        assert tup.table == "PacketIn"
        assert tup.values[1] == 4
        assert tup.values[2] == 7 and tup.values[3] == 9

    def test_history_tuples_collects_base_inserts(self):
        controller = RecordingNDlogController(parse_program(FIG2),
                                              FIGURE2_MAPPING)
        controller.handle_packet_in(PacketInEvent(2, http_request(1, 2)))
        tables = history_tables(history_from_engine(controller.engine))
        assert "PacketIn" in tables


def test_the_empty_response_memo_is_gated_as_analysed():
    """``engine_batch_safe`` — the gate of the empty-response memo — holds
    for the PacketIn-only programs of Q1–Q4 and not for Q5, whose PacketIn
    joins the keyed ``Learned`` table that earlier PacketIns fill."""
    verdicts = {}
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        scenario = build_scenario(name)
        schemas = {schema.name: schema for schema in scenario.schemas()}
        verdicts[name] = engine_batch_safe(
            scenario.program, scenario.mapping.packet_in_table,
            scenario.mapping.packet_out_table, schemas)
        assert scenario.build_controller().engine_batch_safe == verdicts[name]
    assert verdicts == {"Q1": True, "Q2": True, "Q3": True, "Q4": True,
                        "Q5": False}
