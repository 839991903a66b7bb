"""Source positions on the parsed AST, and negation syntax.

Positions feed the lint findings (``file:line:col``); they are carried as
non-comparing fields so structural rule equality — which the rule-delta
machinery depends on — is unaffected by formatting.
"""

from dataclasses import replace

import pytest

from repro.ndlog.errors import ParseError
from repro.ndlog.parser import parse_program

SOURCE = """\
// the happy path
r1 FlowTable(@Swi, Sip, Hdr, Prt) :- PacketIn(@C, Swi, Sip, Hdr),
   WebLoadBalancer(@Swi, Dip, Prt), Hdr == 80.

r2 Out(@Swi) :- FlowTable(@Swi, Sip, Hdr, Prt).
"""


def test_rule_positions():
    program = parse_program(SOURCE)
    r1, r2 = program.rules
    assert (r1.line, r1.column) == (2, 1)
    assert r2.line == 5


def test_atom_positions_point_at_table_names():
    program = parse_program(SOURCE)
    r1 = program.rules[0]
    assert (r1.head.line, r1.head.column) == (2, 4)
    packet_in, wlb = r1.body
    assert packet_in.line == 2
    assert packet_in.column == SOURCE.splitlines()[1].index("PacketIn") + 1
    assert (wlb.line, wlb.column) == (3, 4)


def test_positions_do_not_affect_equality():
    # Same rules, different layout: structural equality must hold (the
    # rule-delta eligibility check diffs rules across reformatted sources).
    reformatted = "\n\n" + SOURCE.replace("\n   ", " ")
    a = parse_program(SOURCE)
    b = parse_program(reformatted)
    assert a.rules == b.rules
    assert a.rules[0].line != b.rules[0].line


def test_replace_preserves_positions():
    rule = parse_program(SOURCE).rules[0]
    edited = replace(rule, name="renamed",
                     head=replace(rule.head, table="Other"),
                     body=[replace(a, negated=True) for a in rule.body])
    assert (edited.line, edited.column) == (rule.line, rule.column)
    assert (edited.head.line, edited.head.column) == (rule.head.line,
                                                      rule.head.column)
    assert [a.line for a in edited.body] == [a.line for a in rule.body]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_program("r1 FlowTable(@Swi :- nothing\n")
    assert excinfo.value.line == 1
    assert excinfo.value.column >= 1


def test_a_newline_inside_a_string_literal_moves_later_positions():
    # The "2" is on line 2, column 12; a tokenizer that did not count the
    # string's newline reported line 1, column 39.
    with pytest.raises(ParseError) as excinfo:
        parse_program('r1 A(@X) :- B(@X), X == "a\nb", Y == 1 2.')
    assert excinfo.value.message == "expected ',' or '.', found '2'"
    assert (excinfo.value.line, excinfo.value.column) == (2, 12)


def test_rules_and_atoms_after_a_multi_line_string_keep_their_lines():
    program = parse_program('r1 A(@X) :- B(@X), X == "a\nb", C(@X).\n'
                            "r2 D(@X) :- E(@X).")
    r1, r2 = program.rules
    assert r1.selections[0].right.value == "a\nb"
    assert (r1.line, r1.column) == (1, 1)
    assert [(atom.line, atom.column) for atom in r1.body] == [(1, 13), (2, 5)]
    assert (r2.line, r2.column) == (3, 1)
    assert [(atom.line, atom.column) for atom in (r2.head, *r2.body)] == [
        (3, 4), (3, 13)]


def test_negated_atom_round_trips():
    program = parse_program(
        "a1 Allowed(@Swi, Sip) :- Request(@Swi, Sip), !Blocked(@Swi, Sip).")
    rule = program.rules[0]
    blocked = rule.body[1]
    assert blocked.negated
    assert not rule.body[0].negated
    rendered = rule.to_ndlog()
    assert "!Blocked(@Swi, Sip)" in rendered
    assert parse_program(rendered).rules[0] == rule
