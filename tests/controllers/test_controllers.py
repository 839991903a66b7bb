"""Tests for the three controller front ends and their repair searches."""

import pytest

from repro.controllers import (
    BinExpr,
    FieldRef,
    FIGURE2_MAPPING,
    FIVE_TUPLE_MAPPING,
    Handler,
    If,
    ImperativeController,
    ImperativeDeliveryGoal,
    ImperativeRepairer,
    InstallFlow,
    Lit,
    NDlogController,
    PolicyController,
    PolicyDeliveryGoal,
    PolicyRepairer,
    SendPacketOut,
    fwd,
    match,
)
from repro.controllers.policy import LocatedPacket, Parallel
from repro.ndlog import make_tuple, parse_program
from repro.sdn import FlowMod, PacketOut
from repro.sdn.controller import PacketInEvent
from repro.sdn.packets import Packet, http_request

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

    def test_reset_discards_state(self):
        controller = NDlogController(parse_program(FIG2), FIGURE2_MAPPING)
        controller.handle_packet_in(PacketInEvent(2, http_request(1, 2)))
        assert controller.flow_table_tuples()
        controller.reset()
        assert controller.flow_table_tuples() == []

    def test_five_tuple_mapping_builds_packet_in(self):
        packet = Packet(src_ip=7, dst_ip=9, src_port=1000, dst_port=80)
        tup = FIVE_TUPLE_MAPPING.packet_in_tuple_from(4, packet, in_port=3)
        assert tup.table == "PacketIn"
        assert tup.values[1] == 4
        assert tup.values[2] == 7 and tup.values[3] == 9

    def test_history_tuples_collects_base_inserts(self):
        controller = NDlogController(parse_program(FIG2), FIGURE2_MAPPING)
        controller.handle_packet_in(PacketInEvent(2, http_request(1, 2)))
        tables = {t.table for t in controller.history_tuples()}
        assert "PacketIn" in tables


class TestPolicyDSL:
    def test_match_restriction_and_forwarding(self):
        policy = match(dst_port=80)[fwd(1)]
        results = policy.evaluate(LocatedPacket(http_request(1, 2), switch=5))
        assert [r.out_port for r in results] == [1]
        assert policy.evaluate(LocatedPacket(
            Packet(src_ip=1, dst_ip=2, dst_port=53), switch=5)) == []

    def test_parallel_union_and_sequential_chaining(self):
        policy = (match(dst_port=80)[fwd(1)]) | (match(dst_port=80)[fwd(2)])
        results = policy.evaluate(LocatedPacket(http_request(1, 2), switch=5))
        assert sorted(r.out_port for r in results) == [1, 2]
        seq = match(dst_port=80) >> fwd(7)
        assert [r.out_port for r in seq.evaluate(
            LocatedPacket(http_request(1, 2), switch=5))] == [7]

    def test_controller_installs_microflows(self):
        controller = PolicyController(match(dst_port=80)[fwd(1)])
        messages = controller.handle_packet_in(
            PacketInEvent(5, http_request(1, 2)))
        assert any(isinstance(m, FlowMod) for m in messages)
        assert any(isinstance(m, PacketOut) for m in messages)

    def test_controller_installs_drop_for_unmatched(self):
        controller = PolicyController(match(dst_port=80)[fwd(1)])
        messages = controller.handle_packet_in(
            PacketInEvent(5, Packet(src_ip=1, dst_ip=2, dst_port=53)))
        assert any(isinstance(m, FlowMod) and m.entry.is_drop() for m in messages)

    def test_repairer_fixes_wrong_switch_match(self):
        buggy = Parallel(match(switch=2, dst_port=80)[fwd(2)],
                         match(switch=1, dst_port=80)[fwd(1)])
        goal = PolicyDeliveryGoal(packet=http_request(1, 2), switch=3,
                                  expected_port=2)
        repairs = PolicyRepairer(buggy).repair_missing_delivery(goal)
        assert any("switch=2" in r.description and "switch=3" in r.description
                   for r in repairs)
        # The repaired policy actually forwards the packet at switch 3.
        fixed = next(r for r in repairs if "switch=2" in r.description
                     and "switch=3" in r.description)
        results = fixed.policy.evaluate(LocatedPacket(http_request(1, 2), switch=3))
        assert any(r.out_port == 2 for r in results)

    def test_node_count_and_describe(self):
        policy = (match(switch=1)[fwd(1)]) | (match(switch=2)[fwd(2)])
        assert policy.node_count() >= 5
        assert "match" in policy.describe()


class TestImperativeLanguage:
    def _handler(self, switch_constant=2):
        return Handler("packet_in", [
            If(BinExpr("==", FieldRef("switch"), Lit(switch_constant)), [
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)), [
                    InstallFlow(FieldRef("switch"),
                                {"dst_port": FieldRef("dst_port")}, Lit(2)),
                    SendPacketOut(FieldRef("switch"), Lit(2)),
                ]),
            ]),
        ])

    def test_interpreter_emits_messages_when_condition_holds(self):
        controller = ImperativeController(self._handler(switch_constant=3))
        messages = controller.handle_packet_in(
            PacketInEvent(3, http_request(1, 2)))
        assert any(isinstance(m, FlowMod) for m in messages)
        assert any(isinstance(m, PacketOut) for m in messages)

    def test_interpreter_silent_when_condition_fails(self):
        controller = ImperativeController(self._handler(switch_constant=2))
        assert controller.handle_packet_in(
            PacketInEvent(3, http_request(1, 2))) == []

    def test_repairer_proposes_constant_fix(self):
        handler = self._handler(switch_constant=2)
        goal = ImperativeDeliveryGoal(packet=http_request(1, 2), switch=3,
                                      expected_port=2)
        repairs = ImperativeRepairer(handler).repair_missing_delivery(goal)
        constant_fixes = [r for r in repairs if "change constant 2 to 3" in r.description]
        assert constant_fixes
        # Applying the fix makes the handler emit the messages at switch 3.
        repaired = ImperativeController(constant_fixes[0].handler)
        assert repaired.handle_packet_in(PacketInEvent(3, http_request(1, 2)))

    def test_repairer_proposes_packet_out_addition(self):
        handler = Handler("packet_in", [
            If(BinExpr("==", FieldRef("switch"), Lit(3)), [
                InstallFlow(FieldRef("switch"),
                            {"dst_port": FieldRef("dst_port")}, Lit(2)),
            ]),
        ])
        goal = ImperativeDeliveryGoal(packet=http_request(1, 2), switch=3,
                                      expected_port=2)
        repairs = ImperativeRepairer(handler).repair_missing_delivery(goal)
        assert any(r.kind == "add_packet_out" for r in repairs)

    def test_handler_line_count(self):
        assert self._handler().line_count() == 4
