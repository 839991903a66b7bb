"""Tests for the NDlog parser."""

from dataclasses import replace

import pytest

from repro.ndlog import (
    Assignment,
    Atom,
    BinOp,
    Const,
    ParseError,
    Selection,
    Var,
    WILDCARD,
    parse_expression,
    parse_program,
    parse_rule,
)

from helpers import base_tables, derived_tables, rule_named

FIGURE2_PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Prt := -1.
r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


class TestRuleParsing:
    def test_single_rule_structure(self):
        rule = parse_rule(
            "r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), "
            "Swi == 1, Hdr == 53, Prt := 2.")
        assert rule.name == "r2"
        assert rule.head.table == "FlowTable"
        assert [a.name for a in rule.head.args] == ["Swi", "Hdr", "Prt"]
        assert rule.head.location_index == 0
        assert len(rule.body) == 1
        assert rule.body[0].table == "PacketIn"
        assert len(rule.selections) == 2
        assert len(rule.assignments) == 1
        assert rule.assignments[0].var == "Prt"
        assert rule.assignments[0].expr == Const(2)

    def test_selection_operators(self):
        rule = parse_rule("r FlowTable(@S,H,P) :- PacketIn(@C,S,H), S != 3, H >= 80, P := 1.")
        ops = [s.op for s in rule.selections]
        assert ops == ["!=", ">="]

    def test_negative_constant(self):
        rule = parse_rule("r T(@S,P) :- U(@S,Q), P := -1.")
        assert rule.assignments[0].expr == Const(-1)

    def test_rule_without_name_gets_sequential_name(self):
        program = parse_program(
            "A(@X,P) :- B(@X,Q), P := 1.\nA(@X,P) :- C(@X,Q), P := 2.\n")
        assert [r.name for r in program.rules] == ["r1", "r2"]

    def test_multiple_body_atoms(self):
        rule = parse_rule(
            "r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), "
            "WebLoadBalancer(@C,Hdr,Prt), Swi == 1.")
        assert [a.table for a in rule.body] == ["PacketIn", "WebLoadBalancer"]

    def test_string_constant(self):
        rule = parse_rule('r T(@X,Name) :- U(@X), Name := "web".')
        assert rule.assignments[0].expr == Const("web")

    def test_wildcard_constant(self):
        rule = parse_rule("r T(@X,P) :- U(@X,Q), P := *.")
        assert rule.assignments[0].expr == Const(WILDCARD)

    def test_comments_are_ignored(self):
        program = parse_program(
            "// load balancer\nr1 A(@X,P) :- B(@X,P), P == 1.\n# another\n")
        assert len(program.rules) == 1

    def test_arithmetic_expression(self):
        rule = parse_rule("r A(@X,P) :- B(@X,Q), Q == 2 * P.")
        sel = rule.selections[0]
        assert sel.op == "=="
        assert isinstance(sel.right, BinOp)
        assert sel.right.op == "*"

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError):
            parse_rule("r1 FlowTable(@Swi :- PacketIn(@C,Swi).")

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            parse_rule('r T(@X) :- U(@X), Name := "web.')

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_rule("r T(@X) :- U(@X). extra")

    @pytest.mark.parametrize("literal", ["\u00b2", "1\u00b23", "-\u00b2"])
    def test_a_digit_int_refuses_is_a_parse_error_at_its_position(
            self, literal):
        # str.isdigit accepts a superscript two and int() does not: the
        # number is a ParseError at its own position.
        source = f"r1 A(@X) :- B(@X), X == {literal}."
        with pytest.raises(ParseError) as excinfo:
            parse_program(source)
        assert excinfo.value.message == f"invalid number {literal!r}"
        assert (excinfo.value.line, excinfo.value.column) == (1, 25)


class TestProgramParsing:
    def test_figure2_program_parses(self):
        program = parse_program(FIGURE2_PROGRAM)
        assert len(program.rules) == 7
        assert [r.name for r in program.rules] == [f"r{i}" for i in range(1, 8)]
        assert program.rules_deriving("FlowTable") == list(program.rules)
        assert base_tables(program) == {"PacketIn", "WebLoadBalancer"}
        assert derived_tables(program) == {"FlowTable"}

    def test_round_trip_through_pretty_printer(self):
        program = parse_program(FIGURE2_PROGRAM)
        reparsed = parse_program(program.to_ndlog())
        assert reparsed.to_ndlog() == program.to_ndlog()
        assert len(reparsed.rules) == len(program.rules)

    def test_rule_named_lookup(self):
        program = parse_program(FIGURE2_PROGRAM)
        assert rule_named(program, "r7").selections[0].to_ndlog() == "Swi == 2"
        with pytest.raises(KeyError):
            rule_named(program, "r99")

    def test_an_edited_value_leaves_the_original_alone(self):
        program = parse_program(FIGURE2_PROGRAM)
        r7 = rule_named(program, "r7")
        swi_is_3 = replace(r7.selections[0],
                           expr=BinOp("==", Var("Swi"), Const(3)))
        edited = replace(r7, selections=(swi_is_3,) + r7.selections[1:])
        assert rule_named(program, "r7").selections[0].right == Const(2)
        assert edited.selections[0].right == Const(3)
        assert edited.selections[1] is r7.selections[1]
        assert edited != r7 and edited.head is r7.head


class TestExpressionParsing:
    def test_simple_comparison(self):
        expr = parse_expression("Swi == 2")
        assert expr == BinOp("==", Var("Swi"), Const(2))

    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr == BinOp("+", Const(1), BinOp("*", Const(2), Const(3)))

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr == BinOp("*", BinOp("+", Const(1), Const(2)), Const(3))

    def test_function_call(self):
        expr = parse_expression("f_match(JID1, JID2)")
        assert expr.name == "f_match"
        assert len(expr.args) == 2

    def test_true_false_literals(self):
        assert parse_expression("True") == Const(1)
        assert parse_expression("false") == Const(0)
