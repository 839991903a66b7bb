"""What the report goldens cannot see about applying a repair.

The NDlog AST is an immutable value type and ``apply_candidate`` builds the
repaired program by replacing only the rules its edits name.  Four things
follow, none of which a candidate list or a verdict would show:

* the repaired program is *exactly* what the edit-in-a-deep-copy
  implementation produced: ``apply_golden.json`` was dumped from that
  implementation (the commit before the AST was frozen) for every candidate
  the explorer emits for Q1-Q5 and Q1 padded to 250 rules at
  ``max_candidates=14``, plus hand-built candidates for the edit kinds and
  orderings the explorer does not emit there;
* every rule no edit names **is** the base program's rule object, and the
  base program is unchanged afterwards;
* nothing can assign to a node or grow one of its sequences;
* candidates survive the candidate JSON wire.

The golden holds, per candidate, the sha256 of the repaired program's
``to_ndlog()`` text, the rule lines that are not in the base program, the
inserted tuples and the size of the candidate's JSON wire.  It is regenerated
with

    PYTHONPATH=src:tests python tests/repair/test_apply_sharing.py \\
        > apply_golden.json.new \\
        && mv apply_golden.json.new tests/repair/apply_golden.json

(through a second file: the script reads the golden it replaces).
"""

import dataclasses
import hashlib
import json
import pathlib
from typing import Set

import pytest

from repro.api import RepairConfig, RepairSession
from repro.ndlog import (Assignment, Atom, BinOp, Const, NDTuple, Program,
                         Rule, Selection, Var, make_tuple, parse_program)
from repro.ndlog.plan import rule_shape
from repro.repair import (ChangeAssignment, ChangeConstant, ChangeOperator,
                          ChangeRuleHead, CopyRule, DeleteSelection,
                          InsertTuple, RepairCandidate, apply_candidate,
                          candidate_from_wire, candidate_to_wire,
                          reset_candidate_ids)
from repro.scenarios import NDlogScenario, build_q1, build_scenario

from padded_programs import padded_source
from helpers import rule_named

GOLDEN_PATH = pathlib.Path(__file__).with_name("apply_golden.json")
PADDED_RULES = 250


def modified_rule_names(program: Program, candidate: RepairCandidate) -> Set[str]:
    """Names of rules touched by a candidate (added rules included)."""
    names: Set[str] = set()
    for edit in candidate.edits:
        rule_name = getattr(edit, "rule", None)
        if isinstance(rule_name, str):
            names.add(rule_name)
        source = getattr(edit, "source_rule", None)
        if isinstance(source, str):
            names.add(source)
        new_rule = getattr(edit, "new_rule", None)
        if new_rule is not None:
            names.add(new_rule.name)
    return names

HAND_PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r5 PacketOut(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Policy(@C,Hdr,Out), Acl(@C,Swi), Swi != 4, 1024 > Hdr, Out > 0, Prt := Out + 1.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


def padded_q1(total_rules=PADDED_RULES):
    """Q1 plus policies for switches its topology does not have — the
    ledger's ``program_heavy`` shape (Fig 10) with fixed switch ids."""
    base = build_q1()
    return NDlogScenario(
        name="Q1PAD", description=f"Q1 padded to {total_rules} rules",
        program_source=padded_source(base, total_rules),
        mapping=base.mapping, topology_factory=base.topology_factory,
        trace_factory=base.trace_factory, symptom=base.symptom,
        static_tuples=base.static_tuples, target_host=base.target_host,
        reference_repair=base.reference_repair,
        ks_threshold=base.ks_threshold)


def _hand_built(program):
    """Candidates for what the explorer does not emit on Q1-Q5: the missing
    edit kinds, and every ordering rule of ``apply_candidate``.

    Each keeps the candidate id it was first pinned with, which is part of
    its wire bytes."""
    r7 = rule_named(program, "r7")
    flow = make_tuple("FlowTable", 3, 80, 2)
    balancer = make_tuple("WebLoadBalancer", "C", 443, 2)
    packet_out = dataclasses.replace(r7.head, table="PacketOut")
    r7_copy = dataclasses.replace(r7, name="r7_copy", head=packet_out)
    second_r7 = dataclasses.replace(r7, head=packet_out)
    cases = {
        "change_constant_right": (1, ChangeConstant("r7", 0, "right", 2, 3)),
        "change_constant_left": (
            2, ChangeConstant("r5", 1, "left", 1024, 2048)),
        "change_operator": (3, ChangeOperator("r7", 1, "==", ">=")),
        "delete_selection": (4, DeleteSelection("r7", 0, "Swi == 2")),
        # A rule's only selection can go: the joins alone then guard it.
        "delete_the_only_selection": (5, DeleteSelection("r1", 0)),
        "change_assignment": (6, ChangeAssignment(
            "r5", 0, "Prt", "Out + 1", BinOp("*", Var("Out"), Const(2)))),
        "change_head": (7, ChangeRuleHead("r7", packet_out)),
        "copy_rule": (8, CopyRule("r7", r7_copy)),
        # A new rule is a copy under a fresh name: the program the removed
        # ``AddRule`` built, appended last.
        "add_rule": (9, CopyRule("r7", dataclasses.replace(r7, name="r9"))),
        # A rule that never fires, as a deletion would leave it: r1's
        # switch selection names a switch no packet comes from.
        "silence_a_rule_by_its_switch": (
            10, ChangeConstant("r1", 0, "right", 1, 5)),
        "insert_tuple": (11, InsertTuple(flow)),
        # Data edits keep their order and leave the program itself.
        "insert_two_tuples_in_order": (
            12, InsertTuple(balancer), InsertTuple(flow)),
        # Values given as a list are stored, applied and wired as a tuple.
        "insert_a_list_valued_tuple": (
            13, InsertTuple(NDTuple("WebLoadBalancer", ["C", 8080, 3]))),
        # Deletions run after every other edit, highest index first.
        "deletions_highest_index_first": (
            14, DeleteSelection("r5", 0), DeleteSelection("r5", 2),
            DeleteSelection("r5", 1)),
        "deletion_after_an_edit_at_a_higher_index": (
            15, DeleteSelection("r7", 0),
            ChangeConstant("r7", 1, "right", 80, 8080)),
        "same_rule_edited_twice": (
            16, ChangeConstant("r7", 0, "right", 2, 3),
            ChangeOperator("r7", 1, "==", "<")),
        "copy_then_edit_the_copy": (
            17, CopyRule("r7", r7_copy),
            ChangeOperator("r7_copy", 0, "==", "!=")),
        # A name held by two rules resolves to the first, as a scan would.
        "duplicate_name_edit_hits_the_first": (
            18, CopyRule("r7", second_r7),
            ChangeConstant("r7", 0, "right", 2, 9)),
        "duplicate_name_delete_hits_the_first": (
            19, CopyRule("r7", second_r7), DeleteSelection("r7", 0)),
        # The deletion order is by index alone, across rules.
        "deletions_in_two_rules": (
            20, DeleteSelection("r7", 0), DeleteSelection("r5", 2),
            DeleteSelection("r5", 0)),
        "program_and_data_edits": (
            21, InsertTuple(flow), ChangeOperator("r1", 0, "==", "!="),
            InsertTuple(balancer)),
    }
    return [(label, RepairCandidate(edits=edits, cost=1.0,
                                    candidate_id=number))
            for label, (number, *edits) in cases.items()]


def cases():
    """``(label, base program, candidate)`` for every pinned application."""
    out = []
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q1PAD"):
        scenario = padded_q1() if name == "Q1PAD" else build_scenario(name)
        reset_candidate_ids()
        session = RepairSession(RepairConfig(max_candidates=14),
                                scenario=scenario)
        session.run(until="generate")
        for index, candidate in enumerate(session.exploration.candidates):
            out.append((f"{name}/{index:02d}", scenario.program, candidate))
    hand_program = parse_program(HAND_PROGRAM, name="hand")
    for label, candidate in _hand_built(hand_program):
        out.append((f"hand/{label}", hand_program, candidate))
    return out


def _wire(tuples):
    return [[tup.table, list(tup.values)] for tup in tuples]


def fingerprint(program, candidate):
    repaired = apply_candidate(program, candidate)
    text = repaired.program.to_ndlog()
    base_lines = set(program.to_ndlog().splitlines())
    return {
        "description": candidate.description,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "rules": len(repaired.program.rules),
        "edited": [line for line in text.splitlines()
                   if line not in base_lines],
        "inserted": _wire(repaired.inserted_tuples),
        "wire_bytes": len(json.dumps(candidate_to_wire(candidate))),
    }


CASES = cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


# -- (a) the golden ----------------------------------------------------------


def test_golden_covers_every_case_and_every_edit_class():
    assert sorted(GOLDEN) == sorted(label for label, _, _ in CASES)
    kinds = {type(edit) for _, _, candidate in CASES
             for edit in candidate.edits}
    assert kinds == {ChangeAssignment, ChangeConstant, ChangeOperator,
                     ChangeRuleHead, CopyRule, DeleteSelection, InsertTuple}


@pytest.mark.parametrize("label,program,candidate", CASES,
                         ids=[label for label, _, _ in CASES])
def test_apply_reproduces_the_golden(label, program, candidate):
    assert fingerprint(program, candidate) == GOLDEN[label]


# -- (b) sharing -------------------------------------------------------------


@pytest.mark.parametrize("label,program,candidate", CASES,
                         ids=[label for label, _, _ in CASES])
def test_rules_no_edit_names_are_the_base_programs_objects(label, program,
                                                           candidate):
    repaired = apply_candidate(program, candidate).program
    base = {id(rule) for rule in program.rules}
    mentioned = modified_rule_names(program, candidate)
    for rule in repaired.rules:
        if rule.name not in mentioned:
            assert id(rule) in base, f"{rule.name} was copied"
    fresh = [rule for rule in repaired.rules if id(rule) not in base]
    program_edits = sum(1 for edit in candidate.edits
                        if not isinstance(edit, InsertTuple))
    assert len(fresh) <= program_edits
    if not program_edits:
        assert repaired is program


def test_base_programs_are_unchanged_after_every_application():
    sources = {}
    for _, program, candidate in CASES:
        sources.setdefault(id(program), (program, program.to_ndlog()))
        apply_candidate(program, candidate)
    for program, source in sources.values():
        assert program.to_ndlog() == source
        assert program == parse_program(source, name=program.name)


# -- (c) immutability --------------------------------------------------------


def _nodes():
    rule = rule_named(parse_program(HAND_PROGRAM), "r5")
    return [rule.head, rule.selections[0], rule.assignments[0], rule,
            Program(rules=[rule])]


@pytest.mark.parametrize("node", _nodes(), ids=lambda n: type(n).__name__)
def test_no_field_of_a_node_can_be_assigned(node):
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1


@pytest.mark.parametrize("node,sequence", [
    (node, field.name) for node in _nodes()
    for field in dataclasses.fields(node)
    if field.name in ("args", "body", "selections", "assignments", "rules")],
    ids=lambda value: value if isinstance(value, str) else type(value).__name__)
def test_no_sequence_of_a_node_can_grow(node, sequence):
    items = getattr(node, sequence)
    assert type(items) is tuple
    with pytest.raises(AttributeError):
        items.append(items[0])


def test_lists_are_accepted_at_construction_and_stored_as_tuples():
    head = Atom("T", [Var("X"), Const(1)])
    rule = Rule("r", head, body=[Atom("S", [Var("X")])],
                selections=[Selection(BinOp("==", Var("X"), Const(1)))],
                assignments=[Assignment("Y", Const(2))])
    program = Program(rules=[rule])
    assert head.args == (Var("X"), Const(1))
    assert (type(rule.body), type(rule.selections), type(rule.assignments),
            type(program.rules)) == (tuple,) * 4
    assert Rule("r", head).body == () and Program().rules == ()
    assert rule == Rule("r", head, body=(Atom("S", (Var("X"),)),),
                        selections=rule.selections,
                        assignments=rule.assignments)


def test_equal_nodes_hash_equal_and_positions_do_not_count():
    first = parse_program(HAND_PROGRAM)
    second = parse_program("\n\n   " + HAND_PROGRAM.replace(", ", ",   "))
    assert first.rules[1].line != second.rules[1].line
    assert first.rules[1].body[1].column != second.rules[1].body[1].column
    assert first == second and hash(first) == hash(second)
    for ours, theirs in zip(first.rules, second.rules):
        assert ours == theirs and hash(ours) == hash(theirs)
        assert ours is not theirs
    assert len({first.rules[0], second.rules[0], first.rules[2]}) == 2
    assert first.rules[0] != dataclasses.replace(first.rules[0], name="other")


def test_replace_keeps_positions_and_repr_shows_fields_only():
    rule = rule_named(parse_program(HAND_PROGRAM), "r5")
    renamed = dataclasses.replace(rule, name="r6")
    assert (renamed.line, renamed.column) == (rule.line, rule.column)
    assert renamed.head is rule.head and renamed.body is rule.body
    text = repr(rule)
    rule_named(Program(rules=[rule]), "r5")      # whatever gets memoized ...
    rule_shape(rule)
    assert repr(rule) == text                   # ... stays out of repr
    assert "line" not in text and "column" not in text


# -- (d) the candidate wire -------------------------------------------------


@pytest.mark.parametrize("label,program,candidate", CASES,
                         ids=[label for label, _, _ in CASES])
def test_candidates_survive_pickle_and_the_json_wire(label, program,
                                                     candidate):
    wire = json.dumps(candidate_to_wire(candidate))
    assert len(wire) == GOLDEN[label]["wire_bytes"]
    decoded = candidate_from_wire(json.loads(wire))
    assert decoded.edits == candidate.edits
    assert decoded == candidate                  # equality skips the tree
    assert decoded.tree is None
    assert json.dumps(candidate_to_wire(decoded)) == wire
    assert (apply_candidate(program, decoded).program
            == apply_candidate(program, candidate).program)


if __name__ == "__main__":
    print(json.dumps({label: fingerprint(program, candidate)
                      for label, program, candidate in CASES}, indent=1))
