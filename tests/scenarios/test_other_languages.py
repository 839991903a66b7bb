"""The Table 3 front ends: the policy language and RubyFlow, their
interpreters and repair searches, and the value semantics of their ASTs."""

import pytest

from repro.scenarios.other_languages import (
    BinExpr,
    DeliveryGoal,
    FieldRef,
    Fwd,
    Handler,
    If,
    ImperativeController,
    ImperativeQ1Scenario,
    ImperativeRepairer,
    InstallFlow,
    Lit,
    LocatedPacket,
    Match,
    Parallel,
    PolicyController,
    PolicyQ1Scenario,
    PolicyRepairer,
    SendPacketOut,
)
from repro.sdn import DROP_PORT, FlowMod, PacketOut
from repro.sdn.controller import PacketInEvent
from repro.sdn.packets import Packet, http_request


class TestPolicyDSL:
    def test_match_restriction_and_forwarding(self):
        policy = Match(dst_port=80)[Fwd(1)]
        assert policy.evaluate(LocatedPacket(http_request(1, 2), switch=5)) == [1]
        assert policy.evaluate(LocatedPacket(
            Packet(src_ip=1, dst_ip=2, dst_port=53), switch=5)) == []

    def test_controller_installs_microflows(self):
        controller = PolicyController(Match(dst_port=80)[Fwd(1)])
        messages = controller.handle_packet_in(
            PacketInEvent(5, http_request(1, 2)))
        assert any(isinstance(m, FlowMod) for m in messages)
        assert any(isinstance(m, PacketOut) for m in messages)

    def test_controller_installs_drop_for_unmatched(self):
        controller = PolicyController(Match(dst_port=80)[Fwd(1)])
        messages = controller.handle_packet_in(
            PacketInEvent(5, Packet(src_ip=1, dst_ip=2, dst_port=53)))
        assert any(isinstance(m, FlowMod) and m.entry.out_port == DROP_PORT
                   for m in messages)

    def test_repairer_fixes_wrong_switch_match(self):
        buggy = Parallel(Match(switch=2, dst_port=80)[Fwd(2)],
                         Match(switch=1, dst_port=80)[Fwd(1)])
        goal = DeliveryGoal(packet=http_request(1, 2), switch=3,
                            expected_port=2)
        repairs = PolicyRepairer(buggy).repair_missing_delivery(goal)
        fixed = next(r for r in repairs if "switch=2" in r.description
                     and "switch=3" in r.description)
        # The repaired policy actually forwards the packet at switch 3 ...
        assert 2 in fixed.program.evaluate(
            LocatedPacket(http_request(1, 2), switch=3))
        # ... and shares the branch it did not edit with the buggy one.
        assert fixed.program.right is buggy.right
        assert fixed.program.left.policy is buggy.left.policy


class TestImperativeLanguage:
    def _handler(self, switch_constant=2):
        return Handler("packet_in", (
            If(BinExpr("==", FieldRef("switch"), Lit(switch_constant)), (
                If(BinExpr("==", FieldRef("dst_port"), Lit(80)), (
                    InstallFlow(FieldRef("switch"),
                                (("dst_port", FieldRef("dst_port")),), Lit(2)),
                    SendPacketOut(FieldRef("switch"), Lit(2)),
                )),
            )),
        ))

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
        goal = DeliveryGoal(packet=http_request(1, 2), switch=3,
                            expected_port=2)
        repairs = ImperativeRepairer(handler).repair_missing_delivery(goal)
        constant_fixes = [r for r in repairs if "change constant 2 to 3" in r.description]
        assert constant_fixes
        # Applying the fix makes the handler emit the messages at switch 3.
        repaired = ImperativeController(constant_fixes[0].program)
        assert repaired.handle_packet_in(PacketInEvent(3, http_request(1, 2)))

    def test_repairer_proposes_packet_out_addition(self):
        handler = Handler("packet_in", (
            If(BinExpr("==", FieldRef("switch"), Lit(3)), (
                InstallFlow(FieldRef("switch"),
                            (("dst_port", FieldRef("dst_port")),), Lit(2)),
            )),
        ))
        goal = DeliveryGoal(packet=http_request(1, 2), switch=3,
                            expected_port=2)
        repairs = ImperativeRepairer(handler).repair_missing_delivery(goal)
        assert any(r.kind == "add_packet_out" for r in repairs)

    def test_port_and_wildcard_repairs_edit_one_statement(self):
        install = InstallFlow(FieldRef("switch"),
                              (("src_ip", Lit("*")),
                               ("dst_port", FieldRef("dst_port"))), Lit(1))
        untouched = If(BinExpr("==", FieldRef("switch"), Lit(9)),
                       (SendPacketOut(FieldRef("switch"), Lit(2)),))
        handler = Handler("packet_in", (
            untouched,
            If(BinExpr("==", FieldRef("switch"), Lit(3)), (install,)),
        ))
        goal = DeliveryGoal(packet=http_request(1, 2), switch=3,
                            expected_port=2)
        repairs = {r.description: r for r in
                   ImperativeRepairer(handler).repair_missing_delivery(goal)}
        port = repairs["change flow entry output port to 2"].program
        assert port.body[1].then_body == (
            InstallFlow(install.switch, install.match_fields, Lit(2)),)
        wildcard = repairs["match on packet.src_ip instead of wildcard"].program
        assert wildcard.body[1].then_body[0].match_fields == (
            ("src_ip", FieldRef("src_ip")), ("dst_port", FieldRef("dst_port")))
        for repaired in (port, wildcard):
            assert repaired.body[0] is untouched
            assert repaired.body[1].condition is handler.body[1].condition


@pytest.mark.parametrize("scenario_class", [PolicyQ1Scenario,
                                            ImperativeQ1Scenario])
def test_programs_are_values(scenario_class):
    scenario = scenario_class()
    candidates = scenario.generate_candidates()
    baseline = scenario.baseline_program()
    assert baseline == scenario_class().baseline_program()
    assert hash(baseline) == hash(scenario_class().baseline_program())
    for candidate in candidates:
        hash(candidate.program)
        assert candidate.program != baseline, candidate.description
    first = scenario.diagnose()
    assert scenario.diagnose() == first
