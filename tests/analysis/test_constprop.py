"""Constant propagation: multi-atom inertness proofs and their limits.

The first half checks the proofs the vetter relies on — each scenario has
known provably-inert insertions (these are exactly the explorer candidates
the backtesters veto).  The second half checks the guard rails: the
analysis must stay silent (return ``None``/``False``) whenever an insert
*could* matter — flow tuples, derivable tuples, primary-key collisions,
open-world callers.
"""

import pytest

from repro.analysis import ConstantPropagation
from repro.ndlog import Engine, make_tuple
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple, TableSchema

from analysis_helpers import scenario_and_candidates


def propagation_for(scenario, closed_world=True):
    mapping = scenario.mapping
    return ConstantPropagation(
        scenario.program,
        schemas={schema.name: schema for schema in scenario.schemas()},
        static_tuples=scenario.static_tuples,
        event_tables={mapping.packet_in_table},
        flow_table=mapping.flow_table,
        closed_world=closed_world)


#: (scenario, table, values, reason) — the provably inert insertions the
#: explorer actually proposes at the shared candidate budget.
INERT_INSERTS = [
    ("Q1", "PacketIn", ("*", 3, "*", 80), "guard-refuted"),
    ("Q1", "WebLoadBalancer", ("*", "*", 2), "join-impossible"),
    ("Q2", "PacketIn", ("*", 5, 6, 53), "guard-refuted"),
    ("Q3", "PacketIn", ("*", 7, 3, 80), "guard-refuted"),
    ("Q4", "PacketOut", (8, "*"), "unconsumed-table"),
    ("Q5", "Learned", ("*", 9, 21, 5), "join-impossible"),
]

#: Insertions that could plausibly matter — the analysis must not claim
#: inertness for any of them.
LIVE_INSERTS = [
    ("Q1", "PacketIn", ("*", 3, "*", "*")),     # Hdr wildcard may match 80
    ("Q4", "PacketIn", ("*", 8, "*", "*")),
    ("Q5", "PacketIn", ("*", 9, "*", "*", "*")),
]


@pytest.mark.parametrize("name, table, values, reason", INERT_INSERTS,
                         ids=lambda v: str(v))
def test_known_inert_insertions(name, table, values, reason):
    scenario, _ = scenario_and_candidates(name)
    propagation = propagation_for(scenario)
    assert propagation.insert_inert(NDTuple(table, values)) == reason


@pytest.mark.parametrize("name, table, values", LIVE_INSERTS,
                         ids=lambda v: str(v))
def test_live_insertions_are_not_claimed_inert(name, table, values):
    scenario, _ = scenario_and_candidates(name)
    propagation = propagation_for(scenario)
    assert propagation.insert_inert(NDTuple(table, values)) is None


def test_flow_table_inserts_are_never_inert():
    scenario, _ = scenario_and_candidates("Q1")
    propagation = propagation_for(scenario)
    flow = scenario.mapping.flow_table
    # Even a tuple no rule could ever read: flow tuples are pushed to the
    # switches at on_start, outside rule evaluation.
    assert propagation.insert_inert(
        NDTuple(flow, (99, 99, 99, 99))) is None


def test_open_world_disables_static_join_proofs():
    # The static-join proof enumerates the complete Acl extent; a caller
    # that may insert base tuples at runtime (closed_world=False) loses it.
    program = parse_program(
        "r1 Out(@Swi) :- Req(@Swi, Sip), Acl(@Swi, Sip).")
    acl = [NDTuple("Acl", (1, 10))]
    req = NDTuple("Req", (2, 20))
    closed = ConstantPropagation(program, static_tuples=acl)
    open_ = ConstantPropagation(program, static_tuples=acl,
                                closed_world=False)
    assert closed.enumerable("Acl")
    assert closed.insert_inert(req) == "join-impossible"
    assert not open_.enumerable("Acl")
    assert open_.insert_inert(req) is None


def test_scenario_join_proofs_survive_open_world():
    # Q5's Learned proof rests on the event-table wildcard axiom (PacketIn
    # tuples are built from concrete packet data), not on enumeration — it
    # must hold for open-world callers too.
    scenario, _ = scenario_and_candidates("Q5")
    open_ = propagation_for(scenario, closed_world=False)
    assert open_.insert_inert(
        NDTuple("Learned", ("*", 9, 21, 5))) == "join-impossible"


def test_event_tuples_are_never_wildcard():
    scenario, _ = scenario_and_candidates("Q1")
    propagation = propagation_for(scenario)
    packet_in = scenario.mapping.packet_in_table
    for column in range(4):
        assert propagation.never_wildcard(packet_in, column)


def test_derivable_tuple_is_not_inert():
    # Out is unconsumed, but r1 can derive Out(Swi, 7) at runtime; a
    # pre-inserted copy would change the derivation delta.
    program = parse_program(
        "r1 Out(@Swi, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "Hdr == 99, Prt := 7.")
    propagation = ConstantPropagation(program, event_tables={"PacketIn"})
    assert propagation.insert_inert(NDTuple("Out", (5, 7))) is None


def test_primary_key_collision_is_not_inert():
    # Seen is unconsumed and underivable, but inserting a tuple whose key
    # collides with existing setup data would *replace* that tuple.
    program = parse_program(
        "r1 Out(@Swi) :- PacketIn(@C, Swi, Sip, Hdr).")
    schema = TableSchema("Seen", ("Swi", "Prt"), primary_key=("Swi",))
    existing = NDTuple("Seen", (5, 80))
    propagation = ConstantPropagation(
        program, schemas={"Seen": schema}, static_tuples=[existing],
        event_tables={"PacketIn"})
    assert propagation.insert_inert(NDTuple("Seen", (5, 443))) is None
    # A fresh key cannot evict anything: inert.
    assert propagation.insert_inert(
        NDTuple("Seen", (6, 443))) == "unconsumed-table"
    # Re-inserting the existing tuple exactly is also inert (set semantics).
    assert propagation.insert_inert(existing) == "unconsumed-table"


def test_guard_refutation_respects_engine_deferral():
    # Selections over assigned variables and raising comparisons are
    # deferred by the engine — the analysis must treat them as "might fire".
    program = parse_program(
        "r1 Out(@Swi, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "Prt > 1, Prt := 2.")
    propagation = ConstantPropagation(program, event_tables={"PacketIn"})
    # Prt is assigned, so Prt > 1 must not refute statically.
    assert propagation.tuple_inert_reason("PacketIn", ("C", 1, 2, 80)) is None


def test_ordered_comparison_against_wildcard_refutes():
    # The engine evaluates '*' < constant as False (wildcards fail ordered
    # comparisons), so a wildcard binding refutes the guard.
    program = parse_program(
        "r1 Out(@Swi) :- Req(@Swi, Sip), Sip < 6.")
    propagation = ConstantPropagation(program)
    assert propagation.tuple_inert_reason("Req", (1, "*")) is not None


#: Guarded PacketIn rules for the tuple-inertness proofs: g1 and g2 can be
#: refuted by their guards, g3 only through its Config join.
GUARDED_PROGRAM = """
g1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
g2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr < 100, Prt := 2.
g3 Mirror(@C,Hdr) :- PacketIn(@C,Swi,Hdr), Config(@C,Hdr).
"""


def packet_in_propagation(text):
    """Guards alone: no schemas, no static tuples, an open world (Config
    may gain tuples at runtime, so its join refutes nothing)."""
    return ConstantPropagation(parse_program(text), event_tables={"PacketIn"},
                               closed_world=False)


#: GUARDED_PROGRAM without g3: only guards decide.
GUARDS_ONLY_PROGRAM = GUARDED_PROGRAM.replace(
    "g3 Mirror(@C,Hdr) :- PacketIn(@C,Swi,Hdr), Config(@C,Hdr).\n", "")


def test_guard_rejections_prove_tuple_inertness():
    inert = packet_in_propagation(GUARDED_PROGRAM).tuple_inert_reason
    # Swi=5 fails g1/g2's equality guards; g3 has no guard, so the Hdr
    # value must be joinable: not inert.
    assert inert("PacketIn", ("C", 5, 80)) is None
    inert = packet_in_propagation(GUARDS_ONLY_PROGRAM).tuple_inert_reason
    assert inert("PacketIn", ("C", 5, 80)) == "guard-refuted"  # no guard passes
    assert inert("PacketIn", ("C", 2, 53)) == "guard-refuted"  # g1 Hdr, g2 Swi
    assert inert("PacketIn", ("C", 2, 80)) is None              # g1 may fire
    assert inert("PacketIn", ("C", 3, 53)) is None              # g2 may fire
    assert inert("PacketIn", ("C", 3, 200)) == "guard-refuted"  # g2: Hdr<100


def test_conflicting_repeated_variables_rule_out():
    inert = packet_in_propagation(
        "d1 Seen(@C,X) :- PacketIn(@C,X,X).").tuple_inert_reason
    assert inert("PacketIn", ("C", 1, 2)) == "shape-mismatch"
    assert inert("PacketIn", ("C", 2, 2)) is None


def test_arity_mismatch_is_inert():
    inert = packet_in_propagation(GUARDED_PROGRAM).tuple_inert_reason
    assert inert("PacketIn", ("C", 1)) == "shape-mismatch"


@pytest.mark.parametrize("text, closed_world", [
    (GUARDED_PROGRAM, False), (GUARDS_ONLY_PROGRAM, False),
    (GUARDED_PROGRAM, True)], ids=["open", "guards-only", "closed"])
def test_inert_verdicts_are_sound_against_the_engine(text, closed_world):
    """Whenever the proof says inert, a live insertion derives nothing."""
    config = make_tuple("Config", "C", 80)
    propagation = ConstantPropagation(
        parse_program(text), static_tuples=[config],
        event_tables={"PacketIn"}, closed_world=closed_world)
    engine = Engine(propagation.program)
    engine.insert(config)
    verdicts = []
    for swi in range(1, 6):
        for hdr in (53, 80, 150):
            tup = make_tuple("PacketIn", "C", swi, hdr)
            derived = engine.insert(tup)
            for head in derived:
                engine.consume(head)
            engine.consume(tup)
            reason = propagation.tuple_inert_reason("PacketIn", tup.values)
            verdicts.append(reason)
            if reason is not None:
                assert derived == [], (swi, hdr, reason)
    # With g3 in an open world every key may fire; in the other two
    # settings some keys are proven inert, through the Config join when
    # Config(C,80) is its whole extent.
    assert (verdicts.count(None) == len(verdicts)) == (
        text == GUARDED_PROGRAM and not closed_world)
    if closed_world:
        assert "join-impossible" in verdicts
