"""Dependency graph: edges, cones, SCCs, stratification."""

from repro.analysis import DependencyGraph
from repro.ndlog.parser import parse_program

from analysis_helpers import scenario_and_candidates

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]

CHAIN = """
r1 Mid(@Swi, Sip) :- PacketIn(@C, Swi, Sip, Hdr).
r2 Out(@Swi, Sip) :- Mid(@Swi, Sip), Static(@Swi, Sip).
"""

NEGATION = """
b1 Blocked(@Swi, Sip) :- Policy(@Swi, Sip).
a1 Allowed(@Swi, Sip) :- Request(@Swi, Sip), !Blocked(@Swi, Sip).
"""

UNSTRATIFIED = """
r1 Reach(@Swi, Sip) :- Link(@Swi, Sip), !Blocked(@Swi, Sip).
r2 Blocked(@Swi, Sip) :- Reach(@Swi, Sip).
"""


def test_edges_and_neighbourhoods():
    graph = DependencyGraph(parse_program(CHAIN))
    assert graph.successors("PacketIn") == {"Mid"}
    assert graph.successors("Mid") == {"Out"}
    assert graph.predecessors("Out") == {"Mid", "Static"}
    assert graph.downstream({"PacketIn"}) == {"PacketIn", "Mid", "Out"}
    assert graph.downstream({"Static"}) == {"Static", "Out"}
    assert graph.upstream({"Out"}) == {"Out", "Mid", "Static", "PacketIn"}
    assert all(edge.polarity == "positive" for edge in graph.edges)
    assert [rule.name for rule in graph.rules_consuming("Mid")] == ["r2"]
    assert [rule.name for rule in graph.rules_deriving("Mid")] == ["r1"]


def test_stratified_negation_gets_strata():
    graph = DependencyGraph(parse_program(NEGATION))
    assert graph.is_stratified()
    assert not graph.findings()
    strata = graph.strata()
    assert strata["Blocked"] < strata["Allowed"]
    negative = [edge for edge in graph.edges if edge.polarity == "negative"]
    assert [(e.source, e.target) for e in negative] == [("Blocked", "Allowed")]


def test_recursion_through_negation_is_flagged():
    graph = DependencyGraph(parse_program(UNSTRATIFIED))
    assert graph.recursive_tables() >= {"Reach", "Blocked"}
    assert not graph.is_stratified()
    assert graph.strata() is None
    findings = graph.findings()
    assert findings and all(f.code == "unstratified-negation"
                            for f in findings)
    assert all(f.line is not None for f in findings)


def test_self_negation_is_unstratified():
    graph = DependencyGraph(parse_program(
        "w1 Winner(@Swi, Sip) :- Entry(@Swi, Sip), !Winner(@Swi, Sip)."))
    assert not graph.is_stratified()


def test_scenario_graphs_are_stratified_and_acyclic():
    for name in SCENARIOS:
        scenario, _candidates = scenario_and_candidates(name)
        graph = DependencyGraph(scenario.program)
        assert graph.is_stratified(), name
        assert graph.recursive_tables() == set(), name
