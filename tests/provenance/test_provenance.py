"""Tests for classical positive and negative provenance."""

import pytest

from classical_provenance import (
    DERIVE,
    EXIST,
    INSERT,
    NDERIVE,
    NEXIST,
    NINSERT,
    ProvenanceGraph,
    ProvenanceQuery,
    TuplePattern,
    Vertex,
    is_negative,
    negative_twin,
)
from reference_engine import NaiveEngine
from repro.ndlog import TableSchema, make_tuple, parse_program

FIGURE2_PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


@pytest.fixture
def engine():
    program = parse_program(FIGURE2_PROGRAM)
    engine = NaiveEngine(program)
    engine.register_schema(TableSchema("PacketIn", ("C", "Swi", "Hdr")))
    engine.register_schema(TableSchema("WebLoadBalancer", ("C", "Hdr", "Prt")))
    engine.register_schema(TableSchema("FlowTable", ("Swi", "Hdr", "Prt")))
    engine.insert(make_tuple("WebLoadBalancer", "C", 80, 2))
    engine.insert(make_tuple("PacketIn", "C", 1, 80))
    engine.insert(make_tuple("PacketIn", "C", 2, 80))
    return engine


class TestPositiveProvenance:
    def test_root_is_exist_vertex(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        assert graph.root.kind == EXIST
        assert graph.root.subject == make_tuple("FlowTable", 1, 80, 2)

    def test_derivation_vertex_names_the_rule(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        derives = graph.find(lambda v: v.kind == DERIVE)
        assert any(v.rule == "r1" for v in derives)

    def test_leaves_are_base_tuple_insertions(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        inserts = graph.find(lambda v: v.kind == INSERT)
        inserted = {v.subject for v in inserts}
        assert make_tuple("PacketIn", "C", 1, 80) in inserted
        assert make_tuple("WebLoadBalancer", "C", 80, 2) in inserted

    def test_base_tuple_provenance_is_just_insert(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(
            make_tuple("WebLoadBalancer", "C", 80, 2))
        assert graph.root.kind == EXIST
        assert [v.kind for v in graph.causes(graph.root)] == [INSERT]

    def test_multiple_derivations_both_appear(self, engine):
        """FlowTable(2,80,2) is derived by the buggy r7; FlowTable(2,80,1) by r5."""
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 2, 80, 2))
        derives = graph.find(lambda v: v.kind == DERIVE)
        assert {v.rule for v in derives} == {"r7"}

    def test_graph_renders_to_text_and_dot(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        text = graph.to_text()
        assert "EXIST" in text and "r1" in text
        dot = graph.to_dot()
        assert dot.startswith("digraph") and "->" in dot


class TestNegativeProvenance:
    def test_missing_flow_entry_for_switch3(self, engine):
        """The paper's diagnostic question: why no flow entry on S3 for port 80?"""
        pattern = TuplePattern.from_dict("FlowTable", {0: 3, 1: 80})
        graph = ProvenanceQuery(engine).explain_missing(pattern)
        assert graph.root.kind == NEXIST
        nderives = graph.find(lambda v: v.kind == NDERIVE)
        # Every rule that could derive FlowTable shows up as a failed derivation.
        assert {v.rule for v in nderives} == {"r1", "r2", "r5", "r7"}

    def test_missing_base_tuple_explained_by_ninsert(self, engine):
        pattern = TuplePattern.from_dict("PacketIn", {1: 9})
        graph = ProvenanceQuery(engine).explain_missing(pattern)
        assert [v.kind for v in graph.causes(graph.root)] == [NINSERT]

    def test_failed_selection_is_reported(self, engine):
        pattern = TuplePattern.from_dict("FlowTable", {0: 3, 1: 80})
        graph = ProvenanceQuery(engine).explain_missing(pattern)
        # r7 requires Swi == 2 but the pattern needs Swi == 3: the selection
        # failure must be part of the explanation.
        sel_vertices = graph.find(
            lambda v: isinstance(v.subject, TuplePattern) and v.subject.table == "Sel")
        rendered = [dict(v.subject.constraints).get(1, "") for v in sel_vertices]
        assert any("Swi == 2" in text for text in rendered)

    def test_existing_supporting_tuples_appear_positively(self, engine):
        pattern = TuplePattern.from_dict("FlowTable", {0: 3, 1: 80})
        graph = ProvenanceQuery(engine).explain_missing(pattern)
        exists = graph.find(lambda v: v.kind == EXIST)
        assert exists, "historical PacketIn tuples should appear as EXIST vertices"


class TestGraphStructure:
    def test_vertex_negative_twin_mapping(self):
        assert negative_twin(EXIST) == NEXIST
        assert is_negative(NEXIST)
        assert not is_negative(EXIST)

    def test_pattern_matching(self):
        pattern = TuplePattern.from_dict("FlowTable", {0: 3, 1: 80})
        assert pattern.matches(make_tuple("FlowTable", 3, 80, 2))
        assert not pattern.matches(make_tuple("FlowTable", 2, 80, 2))
        assert not pattern.matches(make_tuple("PacketIn", 3, 80))

    def test_graph_add_edge_deduplicates(self):
        a = Vertex(EXIST, make_tuple("T", 1))
        b = Vertex(INSERT, make_tuple("T", 1))
        graph = ProvenanceGraph(a)
        graph.add_edge(a, b)
        graph.add_edge(a, b)
        assert len(graph.causes(a)) == 1
        assert graph.effects(b) == [a]

    def test_depth_and_walk(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        assert graph.depth() >= 2
        walked = list(graph.walk())
        assert walked[0][0] is graph.root
        assert all(depth >= 0 for _, depth in walked)

    def test_leaves_have_no_causes(self, engine):
        graph = ProvenanceQuery(engine).explain_exists(make_tuple("FlowTable", 1, 80, 2))
        for leaf in graph.leaves():
            assert graph.causes(leaf) == []
