"""Equivalent candidates replay once: the guard of the replay classes.

After the vet the backtester keys every surviving candidate's patched
program (:class:`repro.analysis.constprop.ClosedWorldKeys`) and replays one
representative per key; every other member is judged from the
representative's statistics.  That is sound only if a member's own replay
would have produced them, so this suite replays every member anyway —
through ``evaluate_outcome``, the hermetic unit a fabric worker runs — and
compares ``TrafficStats`` with its representative's: on the explorer's
candidates of Q1-Q5 at 25, on ``candidate_heavy``'s (Q1 at 100) and on
Hypothesis-drawn single edits of Q1.  The rest holds each way a rule or a
program must key as itself.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RepairConfig, RepairSession
from repro.backtest import Backtester
from repro.ndlog.ast import BinOp, Const, FuncCall, Selection, Var
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import (ChangeConstant, ChangeOperator, DeleteSelection,
                          RepairCandidate)
from repro.scenarios import build_q1, build_scenario
from repro.sdn.controller import PacketOut
from repro.sdn.network import NetworkSimulator
from repro.sdn.switch import FlowEntry

from cases import stats_snapshot

#: (scenario, budget) -> (surviving candidates, replay classes).
CLASSES = {("Q1", 25): (23, 16), ("Q2", 25): (24, 13), ("Q3", 25): (12, 7),
           ("Q4", 25): (10, 7), ("Q5", 25): (5, 5), ("Q1", 100): (93, 41)}


def explored(name, budget):
    """The scenario and the candidates a session's Generate step returns."""
    session = RepairSession(RepairConfig.for_scenario(
        name, max_candidates=budget))
    session.run(until="generate")
    return session.scenario, session.exploration.candidates


def classes_of(backtester, candidates):
    """The vet's survivors and, for each, its representative's index."""
    survivors, _vetoed = backtester._prefilter(candidates)
    return ([candidate for candidate, _ in survivors],
            backtester._classes(survivors))


def assert_members_replay_as_their_representative(backtester, survivors,
                                                  classes):
    replays = {}

    def replay(index):
        if index not in replays:
            replays[index] = stats_snapshot(backtester.evaluate_outcome(
                survivors[index]).result.stats)
        return replays[index]

    for index, representative in enumerate(classes):
        assert representative <= index
        if representative != index:
            assert replay(index) == replay(representative), (
                survivors[index].description,
                survivors[representative].description)


@pytest.mark.parametrize("name, budget", sorted(CLASSES),
                         ids=[f"{name}@{budget}"
                              for name, budget in sorted(CLASSES)])
def test_every_member_replays_as_its_representative(name, budget):
    scenario, candidates = explored(name, budget)
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    survivors, classes = classes_of(backtester, candidates)
    assert (len(survivors), len(set(classes))) == CLASSES[name, budget]
    assert_members_replay_as_their_representative(backtester, survivors,
                                                  classes)


Q1 = build_q1()
_BACKTESTER = Backtester(Q1, ks_threshold=Q1.ks_threshold)
OPERATORS = ("==", "!=", "<", ">", "<=", ">=")
VALUES = (0, 1, 2, 3, 4, 5, 53, 79, 80, 81, 101, 150)


@st.composite
def edits_of_one_selection(draw):
    """2-5 single edits of one selection of Q1: its operator, its constant
    or its deletion — often the same rule under Q1's closed world."""
    rule = draw(st.sampled_from(Q1.program.rules))
    index = draw(st.integers(0, len(rule.selections) - 1))
    selection = rule.selections[index]
    edit = st.one_of(
        st.builds(ChangeOperator, st.just(rule.name), st.just(index),
                  st.just(selection.op), st.sampled_from(OPERATORS)),
        st.builds(ChangeConstant, st.just(rule.name), st.just(index),
                  st.just("right"), st.just(selection.right.value),
                  st.sampled_from(VALUES)),
        st.just(DeleteSelection(rule.name, index)))
    return draw(st.lists(st.lists(edit, min_size=1, max_size=2),
                         min_size=2, max_size=5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edit_lists=edits_of_one_selection())
def test_drawn_edits_of_q1_replay_as_their_representative(edit_lists):
    candidates = [RepairCandidate(edits=tuple(edits), cost=1.0,
                                  description=repr(edits))
                  for edits in edit_lists]
    survivors, classes = classes_of(_BACKTESTER, candidates)
    assert_members_replay_as_their_representative(_BACKTESTER, survivors,
                                                  classes)


# ---------------------------------------------------------------------------
# What shares, and what keys as itself
# ---------------------------------------------------------------------------


def q1_keys():
    return Backtester(build_q1())._replay_keys()


def q1_with(edit_rule, **changes):
    """Q1's program with rule ``edit_rule`` replaced by ``changes``."""
    program = build_q1().program
    return dataclasses.replace(program, rules=tuple(
        dataclasses.replace(rule, **changes) if rule.name == edit_rule
        else rule for rule in program.rules))


def selections(text):
    return parse_program(
        f"x X(@C) :- PacketIn(@C,Swi,Sip,Hdr), {text}.").rules[0].selections


def test_closed_world_identities_share_a_key():
    """The two identities Q1's candidates repeat: ``Swi >= 1`` is no
    switch test on switches 1-4, and ``Hdr != 53`` is ``Hdr > 53`` on a
    trace of ports 53 and 80.  A rule no point satisfies is dropped."""
    keys = q1_keys()
    assert keys.key(q1_with("r1", selections=selections(
        "Swi >= 1, Hdr == 80"))) == keys.key(q1_with(
            "r1", selections=selections("Hdr == 80")))
    assert keys.key(q1_with("r2", selections=selections(
        "Swi == 1, Hdr != 53"))) == keys.key(q1_with(
            "r2", selections=selections("Swi == 1, Hdr > 53")))
    base = build_q1().program
    assert keys.key(q1_with("r7", selections=selections(
        "Swi == 9, Hdr == 80"))) == keys.key(dataclasses.replace(
            base, rules=tuple(r for r in base.rules if r.name != "r7")))


def test_an_in_port_selection_keys_structurally():
    """Q5's ``in_port`` column is no header field: it has no domain, so a
    selection on it keys its rule as itself — where the same pair of
    selections on ``Swi`` shares a key."""
    keys = Backtester(build_scenario("Q5"))._replay_keys()
    q5 = build_scenario("Q5").program

    def f1_with(text):
        return dataclasses.replace(q5, rules=tuple(
            dataclasses.replace(rule, selections=parse_program(
                f"x X(@C) :- PacketIn(@C,Swi,Sip,Dip,Ipt), {text}."
            ).rules[0].selections) if rule.name == "f1" else rule
            for rule in q5.rules))

    assert keys.key(f1_with("Ipt >= 0")) != keys.key(f1_with("Ipt >= -1"))
    assert keys.key(f1_with("Swi >= 0")) == keys.key(f1_with("Swi >= -1"))


def test_an_inserted_packet_in_tuple_keys_its_candidate_as_itself():
    """A wildcard PacketIn tuple lies outside the domain: every rule of the
    program keys as itself, so the two closed-world twins part."""
    keys = q1_keys()
    twins = (q1_with("r2", selections=selections("Swi == 1, Hdr != 53")),
             q1_with("r2", selections=selections("Swi == 1, Hdr > 53")))
    assert keys.key(twins[0]) == keys.key(twins[1])
    wildcard = NDTuple("PacketIn", ("C", 1, "*", 80))
    assert keys.key(twins[0], [wildcard]) != keys.key(twins[1], [wildcard])
    inside = NDTuple("PacketIn", ("C", 1, 101, 80))
    assert keys.key(twins[0], [inside]) == keys.key(twins[1], [inside])


def test_a_rule_deriving_packet_ins_keys_its_program_as_itself():
    keys = q1_keys()
    twins = [q1_with("r2", selections=selections(text))
             for text in ("Swi == 1, Hdr != 53", "Swi == 1, Hdr > 53")]
    echo = parse_program("echo PacketIn(@C,Swi,Sip,Hdr) :- "
                         "PacketIn(@C,Swi,Sip,Hdr), Swi == 9.").rules[0]
    assert keys.key(twins[0]) == keys.key(twins[1])
    assert len({keys.key(dataclasses.replace(
        twin, rules=twin.rules + (echo,))) for twin in twins}) == 2


def test_a_function_call_selection_keys_structurally():
    """``Swi == f_join(1, 1)`` holds exactly where ``Swi == 1`` does, but a
    call is never evaluated statically: the rule keys as itself."""
    keys = q1_keys()

    def r1_with(right):
        return q1_with("r1", selections=(
            Selection(BinOp("==", Var("Swi"), right)),
            *selections("Hdr == 80")))

    called = r1_with(FuncCall("f_join", (Const(1), Const(1))))
    assert keys.key(called) != keys.key(r1_with(Const(1)))


def test_the_order_of_two_same_head_rules_is_part_of_the_key():
    """Flow entries of one priority match in installation order, so two
    programs that order two FlowTable rules differently are two classes."""
    keys = q1_keys()
    program = build_q1().program
    rules = list(program.rules)
    rules[2], rules[3] = rules[3], rules[2]
    assert rules[2].head.table == rules[3].head.table
    assert keys.key(dataclasses.replace(program, rules=tuple(rules))) != \
        keys.key(program)


def test_the_domain_is_closed_on_a_real_replay():
    """The first two obligations, on Q1's replay: every PacketIn comes
    from a topology switch with headers of the trace, and no action
    carries more than a port, so none can rewrite a header."""
    assert FlowEntry._fields == ("match", "out_port", "priority")
    assert PacketOut._fields == ("switch_id", "port", "packet")
    scenario = build_q1()
    controller = scenario.build_controller()
    seen = []
    handle = controller.handle_packet_in

    def recording(event):
        seen.append((event.switch_id, event.packet.header_values))
        return handle(event)

    controller.handle_packet_in = recording
    topology = scenario.build_topology()
    NetworkSimulator(topology, controller,
                     record_ingress=False).run_trace(scenario.trace())
    headers = {packet.header_values for _switch, packet in scenario.trace()}
    assert seen
    assert all(switch in topology.switches and values in headers
               for switch, values in seen)
