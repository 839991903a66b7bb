"""The inert-insert check: its proofs and their limits.

The first part checks the proofs the vetter relies on — each scenario has
known provably-inert insertions (these are exactly the explorer candidates
the backtesters veto).  The second part checks the guard rails: the check
must stay silent (return ``None``) whenever an insert *could* matter — flow
tuples, derivable tuples, primary-key collisions, deferred or escaping
selections.  The last part compares the check with the class it replaced
(``constprop_oracle``) on drawn Q1–Q5 inserts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.constprop import insert_inert
from repro.ndlog import Engine, make_tuple
from repro.ndlog.ast import Const
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple, TableSchema
from repro.repair import InsertTuple, RepairCandidate
from repro.scenarios import build_scenario

from analysis_helpers import scenario_and_candidates, vetter_for
from constprop_oracle import ConstantPropagation


def inert_for(scenario, tup, setup=None):
    """The vetter's question for ``tup`` over ``scenario``, with the
    scenario's static tuples as the set-up unless ``setup`` is given."""
    mapping = scenario.mapping
    return insert_inert(
        tup, scenario.program,
        scenario.static_tuples if setup is None else setup,
        event_tables={mapping.packet_in_table},
        schemas={schema.name: schema for schema in scenario.schemas()},
        flow_table=mapping.flow_table)


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

#: Insertions that could plausibly matter — the check must not claim
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
    assert inert_for(scenario, NDTuple(table, values)) == reason


@pytest.mark.parametrize("name, table, values", LIVE_INSERTS,
                         ids=lambda v: str(v))
def test_live_insertions_are_not_claimed_inert(name, table, values):
    scenario, _ = scenario_and_candidates(name)
    assert inert_for(scenario, NDTuple(table, values)) is None


def test_flow_table_inserts_are_never_inert():
    scenario, _ = scenario_and_candidates("Q1")
    flow = scenario.mapping.flow_table
    # Even a tuple no rule could ever read: flow tuples are pushed to the
    # switches at on_start, outside rule evaluation.
    assert inert_for(scenario, NDTuple(flow, (99, 99, 99, 99))) is None


def test_scenario_join_proofs_rest_on_the_packet_in_axiom():
    # Q1's WebLoadBalancer and Q5's Learned proofs rest on the PacketIn
    # axiom (PacketIn tuples are built from concrete packet data), not on
    # the set-up tuples: they hold with none.
    for name, table, values in (("Q1", "WebLoadBalancer", ("*", "*", 2)),
                                ("Q5", "Learned", ("*", 9, 21, 5))):
        scenario, _ = scenario_and_candidates(name)
        assert inert_for(scenario, NDTuple(table, values),
                         setup=()) == "join-impossible"


def test_event_tuples_are_never_wildcard():
    # A '*' that must join any column of the PacketIn table joins nothing;
    # the same join with a table the axiom does not cover might.
    scenario, _ = scenario_and_candidates("Q1")
    packet_in = scenario.mapping.packet_in_table
    for column in range(4):
        args = ["A", "B", "D", "E"]
        args[column] = "X"
        program = parse_program(
            f"r1 Out(@Y) :- Probe(@Y,X), {packet_in}(@{','.join(args)}).")
        probe = NDTuple("Probe", (1, "*"))
        assert insert_inert(probe, program, (),
                            event_tables={packet_in}) == "join-impossible"
        assert insert_inert(probe, program, ()) is None


def test_the_axiom_covers_no_wildcard_a_replay_may_hold():
    # An inserted PacketIn tuple may hold '*', and a derived one might:
    # there the axiom does not hold, and the engine joins the '*'.
    program = parse_program(
        "r1 Out(@C,X) :- PacketIn(@C,X,Y), PacketIn(@C,Y,X).")
    tup = NDTuple("PacketIn", ("c", "*", "*"))
    assert Engine(program).insert(tup) == [NDTuple("Out", ("c", "*"))]
    assert insert_inert(tup, program, [tup],
                        event_tables={"PacketIn"}) is None
    probe = NDTuple("Probe", (1, "*"))
    joined = "r1 Out(@Y) :- Probe(@Y,X), PacketIn(@A,X,B).\n"
    assert insert_inert(probe, parse_program(joined), [probe],
                        event_tables={"PacketIn"}) == "join-impossible"
    derived = joined + "r2 PacketIn(@C,X,Y) :- Seed(@C,X,Y).\n"
    assert insert_inert(probe, parse_program(derived), [probe],
                        event_tables={"PacketIn"}) is None
    # Only the column the set-up's '*' sits at loses the axiom.
    wild = NDTuple("PacketIn", ("c", 1, "*"))
    assert insert_inert(probe, parse_program(joined), [probe, wild],
                        event_tables={"PacketIn"}) == "join-impossible"


def test_derivable_tuple_is_not_inert():
    # Out is unconsumed, but r1 can derive Out(Swi, 7) at runtime; a
    # pre-inserted copy would change the derivation delta.
    program = parse_program(
        "r1 Out(@Swi, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "Hdr == 99, Prt := 7.")
    assert insert_inert(NDTuple("Out", (5, 7)), program, (),
                        event_tables={"PacketIn"}) is None


def test_primary_key_collision_is_not_inert():
    # Seen is unconsumed and underivable, but inserting a tuple whose key
    # collides with existing setup data would *replace* that tuple.
    program = parse_program(
        "r1 Out(@Swi) :- PacketIn(@C, Swi, Sip, Hdr).")
    schema = TableSchema("Seen", ("Swi", "Prt"), primary_key=("Swi",))
    existing = NDTuple("Seen", (5, 80))

    def inert(tup):
        return insert_inert(tup, program, [existing],
                            event_tables={"PacketIn"},
                            schemas={"Seen": schema})

    assert inert(NDTuple("Seen", (5, 443))) is None
    # A fresh key cannot evict anything: inert.
    assert inert(NDTuple("Seen", (6, 443))) == "unconsumed-table"
    # Re-inserting the existing tuple exactly is also inert (set semantics).
    assert inert(existing) == "unconsumed-table"


def packet_in_inert(text):
    """Guards alone: ``values -> reason`` for a PacketIn insert into
    ``text`` with no schemas and no set-up tuples."""
    program = parse_program(text)
    return lambda values: insert_inert(
        NDTuple("PacketIn", values), program, (), event_tables={"PacketIn"})


def test_guard_refutation_respects_engine_deferral():
    # Selections over assigned variables and raising comparisons are
    # deferred by the engine — the check must treat them as "might fire".
    inert = packet_in_inert(
        "r1 Out(@Swi, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "Prt > 1, Prt := 2.")
    # Prt is assigned, so Prt > 1 must not refute statically.
    assert inert(("C", 1, 2, 80)) is None


def test_ordered_comparison_against_wildcard_refutes():
    # The engine evaluates '*' < constant as False (wildcards fail ordered
    # comparisons), so a wildcard binding refutes the guard.
    program = parse_program(
        "r1 Out(@Swi) :- Req(@Swi, Sip), Sip < 6.")
    assert insert_inert(NDTuple("Req", (1, "*")), program, ()) is not None


#: A program whose only guard divides; ``{op}`` is ``/`` or ``%``.
DIVIDING_PROGRAM = "r1 Out(@C,X) :- Req(@C,X,Y), X {op} Y == 2."


@pytest.mark.parametrize("op", ["/", "%"])
def test_a_dividing_guard_is_left_to_the_replay(op):
    # The engine raises ZeroDivisionError on a zero divisor and does not
    # defer it, so the check never evaluates a '/' or '%' selection: the
    # insert reaching one is replayed, as it is without the vet.
    program = parse_program(DIVIDING_PROGRAM.format(op=op))
    zero, refuted = NDTuple("Req", ("C", 4, 0)), NDTuple("Req", ("C", 5, 1))
    engine = Engine(program)
    with pytest.raises(ZeroDivisionError):
        engine.insert(zero)
    vetter = vetter_for(build_scenario("Q1"), program)
    for tup in (zero, refuted):
        assert insert_inert(tup, program, [tup]) is None
        candidate = RepairCandidate(edits=(InsertTuple(tup),), cost=1.0)
        assert vetter.decide(candidate).reason is None
        assert not vetter.vet_candidate(candidate).rejected


#: Guarded PacketIn rules for the tuple-inertness proofs: g1 and g2 can be
#: refuted by their guards, g3 by nothing (its Config join is no proof).
GUARDED_PROGRAM = """
g1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
g2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 3, Hdr < 100, Prt := 2.
g3 Mirror(@C,Hdr) :- PacketIn(@C,Swi,Hdr), Config(@C,Hdr).
"""

#: GUARDED_PROGRAM without g3: only guards decide.
GUARDS_ONLY_PROGRAM = GUARDED_PROGRAM.replace(
    "g3 Mirror(@C,Hdr) :- PacketIn(@C,Swi,Hdr), Config(@C,Hdr).\n", "")


def test_guard_rejections_prove_tuple_inertness():
    inert = packet_in_inert(GUARDED_PROGRAM)
    # Swi=5 fails g1/g2's equality guards; g3 has no guard, so the Hdr
    # value must be joinable: not inert.
    assert inert(("C", 5, 80)) is None
    inert = packet_in_inert(GUARDS_ONLY_PROGRAM)
    assert inert(("C", 5, 80)) == "guard-refuted"  # no guard passes
    assert inert(("C", 2, 53)) == "guard-refuted"  # g1 Hdr, g2 Swi
    assert inert(("C", 2, 80)) is None              # g1 may fire
    assert inert(("C", 3, 53)) is None              # g2 may fire
    assert inert(("C", 3, 200)) == "guard-refuted"  # g2: Hdr<100


def test_conflicting_repeated_variables_rule_out():
    inert = packet_in_inert("d1 Seen(@C,X) :- PacketIn(@C,X,X).")
    assert inert(("C", 1, 2)) == "shape-mismatch"
    assert inert(("C", 2, 2)) is None


def test_arity_mismatch_is_inert():
    inert = packet_in_inert(GUARDED_PROGRAM)
    assert inert(("C", 1)) == "shape-mismatch"


@pytest.mark.parametrize("text", [GUARDED_PROGRAM, GUARDS_ONLY_PROGRAM],
                         ids=["open", "guards-only"])
def test_inert_verdicts_are_sound_against_the_engine(text):
    """Whenever the proof says inert, a live insertion derives nothing."""
    config = make_tuple("Config", "C", 80)
    program = parse_program(text)
    engine = Engine(program)
    engine.insert(config)
    verdicts = []
    for swi in range(1, 6):
        for hdr in (53, 80, 150):
            tup = make_tuple("PacketIn", "C", swi, hdr)
            derived = engine.insert(tup)
            for head in derived:
                engine.consume(head)
            engine.consume(tup)
            reason = insert_inert(tup, program, [config, tup],
                                  event_tables={"PacketIn"})
            verdicts.append(reason)
            if reason is not None:
                assert derived == [], (swi, hdr, reason)
    # With g3 every key may fire; with guards alone some keys are proven
    # inert.
    assert (verdicts.count(None) == len(verdicts)) == (
        text == GUARDED_PROGRAM)


# ----------------------------------------------------------------------
# Differential: the check against the class it replaced
# ----------------------------------------------------------------------


class RecordingOracle(ConstantPropagation):
    """The replaced class, noting whether its static-join search — a join
    through an enumerable table's extent, or a clean static column taken
    for wildcard-free — refuted anything."""

    static_refuted = False

    def _static_join_refuted(self, rule, skip_index, bindings):
        refuted = super()._static_join_refuted(rule, skip_index, bindings)
        self.static_refuted |= refuted
        return refuted

    def never_wildcard(self, table, column):
        never = super().never_wildcard(table, column)
        self.static_refuted |= never and table not in self.event_tables
        return never


def _world(name):
    """(scenario, table -> arities, constants) of a Q1–Q5 scenario: every
    table its program or set-up names, and every constant they hold."""
    scenario = build_scenario(name)
    arities, constants = {}, {"*", "C", 0, 999}
    for rule in scenario.program.rules:
        for atom in (rule.head,) + tuple(rule.body):
            arities.setdefault(atom.table, set()).add(len(atom.args))
            constants.update(arg.value for arg in atom.args
                             if isinstance(arg, Const))
        for expr in ([s.expr for s in rule.selections]
                     + [a.expr for a in rule.assignments]):
            for side in (getattr(expr, "left", None),
                         getattr(expr, "right", None), expr):
                if isinstance(side, Const):
                    constants.add(side.value)
    for tup in scenario.static_tuples:
        arities.setdefault(tup.table, set()).add(len(tup.values))
        constants.update(tup.values)
    return (scenario, {table: sorted(sizes) for table, sizes
                       in sorted(arities.items())},
            sorted(constants, key=repr))


WORLDS = {name: _world(name) for name in ("Q1", "Q2", "Q3", "Q4", "Q5")}


@st.composite
def drawn_inserts(draw):
    name = draw(st.sampled_from(sorted(WORLDS)))
    scenario, arities, constants = WORLDS[name]
    table = draw(st.sampled_from(sorted(arities)))
    # One column too many: an arity no atom of the table has.
    arity = draw(st.sampled_from(arities[table] + [arities[table][-1] + 1]))
    values = draw(st.lists(st.sampled_from(constants),
                           min_size=arity, max_size=arity))
    return scenario, NDTuple(table, tuple(values))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(drawn=drawn_inserts())
def test_the_check_equals_the_replaced_class_where_no_static_join_refutes(
        drawn):
    scenario, tup = drawn
    mapping = scenario.mapping
    setup = scenario.static_tuples + [tup]
    oracle = RecordingOracle(
        scenario.program,
        schemas={schema.name: schema for schema in scenario.schemas()},
        static_tuples=setup, event_tables={mapping.packet_in_table},
        flow_table=mapping.flow_table)
    expected = oracle.insert_inert(tup)
    if not oracle.static_refuted:
        assert inert_for(scenario, tup, setup) == expected
