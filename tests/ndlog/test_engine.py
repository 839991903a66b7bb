"""Tests for the NDlog evaluation engine."""

from dataclasses import replace

import pytest

from repro.ndlog import (
    Engine,
    EvaluationError,
    NDTuple,
    TableSchema,
    make_tuple,
    parse_program,
)
from repro.ndlog.expr import match_atom

from recording_oracle import derivations_of
from reference_engine import DERIVE, INSERT, SEND, NaiveEngine

FIGURE2_PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Prt := -1.
r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


def make_figure2_engine(program=None, engine_class=Engine):
    engine = engine_class(program or parse_program(FIGURE2_PROGRAM))
    engine.register_schema(TableSchema("PacketIn", ("C", "Swi", "Hdr"), persistent=False))
    engine.register_schema(TableSchema("WebLoadBalancer", ("C", "Hdr", "Prt")))
    engine.register_schema(TableSchema("FlowTable", ("Swi", "Hdr", "Prt")))
    return engine


class TestBasicDerivation:
    def test_single_rule_fires(self):
        program = parse_program("r A(@X,P) :- B(@X,Q), Q == 2 * P, P := Q / 2.")
        engine = Engine(program)
        derived = engine.insert(make_tuple("B", "n1", 10))
        assert make_tuple("A", "n1", 5) in derived

    def test_rule_does_not_fire_when_selection_fails(self):
        program = parse_program("r A(@X,P) :- B(@X,P), P == 1.")
        engine = Engine(program)
        derived = engine.insert(make_tuple("B", "n1", 2))
        assert derived == []

    def test_join_of_two_tables(self):
        program = parse_program("r C(@X,P) :- A(@X,P), B(@X,P), P > 0.")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 7))
        derived = engine.insert(make_tuple("B", "n1", 7))
        assert make_tuple("C", "n1", 7) in derived

    def test_join_requires_matching_values(self):
        program = parse_program("r C(@X,P) :- A(@X,P), B(@X,P), P > 0.")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 7))
        derived = engine.insert(make_tuple("B", "n1", 8))
        assert derived == []

    def test_transitive_derivation(self):
        program = parse_program(
            "r1 B(@X,P) :- A(@X,P), P > 0.\n"
            "r2 C(@X,P) :- B(@X,P), P > 1.\n")
        engine = Engine(program)
        derived = engine.insert(make_tuple("A", "n1", 5))
        assert make_tuple("B", "n1", 5) in derived
        assert make_tuple("C", "n1", 5) in derived

    def test_chained_assignments(self):
        program = parse_program("r A(@X,P,Q) :- B(@X,V), P := V + 1, Q := P * 2.")
        engine = Engine(program)
        derived = engine.insert(make_tuple("B", "n1", 3))
        assert make_tuple("A", "n1", 4, 8) in derived

    def test_constant_in_body_atom_acts_as_filter(self):
        program = parse_program("r A(@X) :- B(@X, 5).")
        engine = Engine(program)
        assert engine.insert(make_tuple("B", "n1", 4)) == []
        assert make_tuple("A", "n1") in engine.insert(make_tuple("B", "n1", 5))


class TestFigure2Scenario:
    """Behaviour of the paper's running example (buggy load-balancer)."""

    def test_switch1_web_request_uses_load_balancer(self):
        engine = make_figure2_engine()
        engine.insert(make_tuple("WebLoadBalancer", "C", 80, 2))
        derived = engine.insert(make_tuple("PacketIn", "C", 1, 80))
        assert make_tuple("FlowTable", 1, 80, 2) in derived

    def test_switch2_web_request_forwarded_to_h1(self):
        engine = make_figure2_engine()
        derived = engine.insert(make_tuple("PacketIn", "C", 2, 80))
        # Both r5 and the buggy r7 fire on switch 2.
        assert make_tuple("FlowTable", 2, 80, 1) in derived
        assert make_tuple("FlowTable", 2, 80, 2) in derived

    def test_bug_no_flow_entry_for_switch3(self):
        """The copy-and-paste bug: no rule matches Swi == 3, so S3 gets no entry."""
        engine = make_figure2_engine()
        derived = engine.insert(make_tuple("PacketIn", "C", 3, 80))
        assert derived == []
        assert engine.tuples("FlowTable") == set()

    def test_fixed_program_installs_switch3_entry(self):
        buggy = parse_program(FIGURE2_PROGRAM)
        # The fix the paper's operator would apply: Swi == 2 -> Swi == 3 in r7.
        from repro.ndlog import BinOp, Const, Selection, Var
        r7 = buggy.rule_named("r7")
        fixed_r7 = replace(r7, selections=(
            Selection(BinOp("==", Var("Swi"), Const(3))),) + r7.selections[1:])
        fixed = replace(buggy, rules=tuple(
            fixed_r7 if rule is r7 else rule for rule in buggy.rules))
        engine = make_figure2_engine(fixed)
        derived = engine.insert(make_tuple("PacketIn", "C", 3, 80))
        assert make_tuple("FlowTable", 3, 80, 2) in derived


class TestEventsAndDerivations:
    """The event log and the derivation records: the recording oracle's."""

    def test_insert_and_derive_events_logged(self):
        engine = make_figure2_engine(engine_class=NaiveEngine)
        engine.insert(make_tuple("PacketIn", "C", 2, 80))
        kinds = [e.kind for e in engine.events]
        assert INSERT in kinds
        assert DERIVE in kinds

    def test_send_event_for_cross_node_derivation(self):
        engine = make_figure2_engine(engine_class=NaiveEngine)
        engine.insert(make_tuple("PacketIn", "C", 2, 80))
        sends = [e for e in engine.events if e.kind == SEND]
        # The FlowTable head lives at switch 2 while PacketIn lives at C.
        assert sends and sends[0].destination == 2

    def test_derivation_record_contains_body_and_bindings(self):
        engine = make_figure2_engine(engine_class=NaiveEngine)
        engine.insert(make_tuple("WebLoadBalancer", "C", 80, 2))
        engine.insert(make_tuple("PacketIn", "C", 1, 80))
        records = derivations_of(engine, make_tuple("FlowTable", 1, 80, 2))
        assert any(r.rule == "r1" for r in records)
        r1_record = next(r for r in records if r.rule == "r1")
        assert make_tuple("PacketIn", "C", 1, 80) in r1_record.body
        assert dict(r1_record.bindings)["Swi"] == 1

    def test_multiple_derivations_of_same_tuple_are_recorded(self):
        engine = make_figure2_engine(engine_class=NaiveEngine)
        engine.insert(make_tuple("PacketIn", "C", 2, 53))
        # r6 derives FlowTable(2,53,2); insert a second packet -> same entry.
        engine.insert(make_tuple("PacketIn", "C", 2, 53))
        records = derivations_of(engine, make_tuple("FlowTable", 2, 53, 2))
        assert len(records) >= 1

    def test_transient_tuples_removed_after_fixpoint(self):
        engine = make_figure2_engine()
        engine.insert(make_tuple("PacketIn", "C", 2, 80))
        assert engine.tuples("PacketIn") == set()
        # but the derived flow entries persist
        assert engine.tuples("FlowTable")


class TestRemoval:
    def test_removing_base_tuple_underives_dependents(self):
        program = parse_program("r C(@X,P) :- A(@X,P), B(@X,P), P > 0.")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 7))
        engine.insert(make_tuple("B", "n1", 7))
        assert engine.contains(make_tuple("C", "n1", 7))
        disappeared = engine.remove(make_tuple("A", "n1", 7))
        assert make_tuple("C", "n1", 7) in disappeared
        assert not engine.contains(make_tuple("C", "n1", 7))

    def test_removing_unknown_tuple_is_noop(self):
        program = parse_program("r C(@X,P) :- A(@X,P), P > 0.")
        engine = Engine(program)
        assert engine.remove(make_tuple("A", "n1", 1)) == []


class TestBulkEvaluation:
    def test_bulk_evaluation(self):
        program = parse_program("r C(@X,P) :- A(@X,P), B(@X,P), P > 0.")
        engine = Engine(program)
        engine.insert_many([
            make_tuple("A", "n1", 1),
            make_tuple("A", "n1", 2),
            make_tuple("B", "n1", 2),
        ])
        assert engine.contains(make_tuple("C", "n1", 2))
        assert not engine.contains(make_tuple("C", "n1", 1))


class TestPrimaryKeySemantics:
    def test_primary_key_replaces_old_tuple(self):
        program = parse_program("r Dummy(@X) :- NeverUsed(@X).")
        engine = Engine(program)
        engine.register_schema(TableSchema(
            "Config", ("Node", "Key", "Value"), primary_key=("Node", "Key")))
        engine.insert(make_tuple("Config", "n1", "mode", 1))
        engine.insert(make_tuple("Config", "n1", "mode", 2))
        assert engine.tuples("Config") == {make_tuple("Config", "n1", "mode", 2)}


class TestMatchAtom:
    """`match_atom` (used by negative provenance on historical tuples) has
    the compiled join's strict semantics."""

    RULE = "r H(@X, Y) :- P(@X, Y), Q(@X, Y + 1, 7, X)."
    ATOM = parse_program(RULE).rules[0].body[1]

    def match(self, *values, table="Q", **bindings):
        return match_atom(self.ATOM, NDTuple(table, values), bindings)

    def test_extends_bindings_and_evaluates_bound_expression_args(self):
        assert self.match(1, 6, 7, 1, Y=5) == {"X": 1, "Y": 5}

    def test_unbound_expression_argument_fails_the_match(self):
        assert self.match(1, 6, 7, 1) is None

    def test_constants_and_repeated_variables_compare_strictly(self):
        assert self.match(1, 6, "*", 1, Y=5) is None     # no wildcard match
        assert self.match(1, 6, 7, 2, Y=5) is None       # X bound twice
        assert self.match(1, 6, 7, 1, Y=5, X=2) is None  # X already bound

    def test_table_and_arity_must_agree(self):
        assert self.match(1, 6, 7, Y=5) is None
        assert self.match(1, 6, 7, 1, table="R", Y=5) is None

    @pytest.mark.parametrize("values", [
        (1, 6, 7, 1), (1, 6, "*", 1), (1, 6, 7, 2), (1, 9, 7, 1)])
    def test_agrees_with_the_compiled_join(self, values):
        engine = Engine(parse_program(self.RULE))
        engine.insert(NDTuple("Q", values))
        fired = bool(engine.insert(NDTuple("P", (1, 5))))
        assert fired == (self.match(*values, X=1, Y=5) is not None)
