"""Cross-check of the indexed engine against the naive reference evaluator.

The indexed engine (:class:`repro.ndlog.Engine`) must produce *bit-identical*
derived-tuple sets to the scan-based oracle (``reference_engine.NaiveEngine``)
— the original evaluation strategy kept for exactly this purpose.  The checks
run the real Q1–Q5 controller programs over their recorded traffic traces,
plus synthetic insert/delete workloads: small scripted ones and the bulk
join, delete and wide-program (Figure 10-style) ones.
"""

import pytest

from reference_engine import NaiveEngine
from repro.ndlog import Engine, TableSchema, make_tuple, parse_program
from repro.scenarios import SCENARIO_BUILDERS, build_scenario


def database_state(engine):
    """Comparable snapshot of an engine's database."""
    tables = {table: engine.database.tuples(table)
              for table in engine.database.tables()}
    return (tables, engine.database.base_tuples(), engine.database.derived_tuples())


def build_pair(program_source):
    program = parse_program(program_source)
    return Engine(program), NaiveEngine(program)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_scenario_trace_derivations_match_oracle(name):
    scenario = build_scenario(name)
    indexed = Engine(scenario.program)
    naive = NaiveEngine(scenario.program)
    for engine in (indexed, naive):
        for schema in scenario.schemas():
            engine.register_schema(schema)
    assert set(indexed.insert_many(list(scenario.static_tuples))) == \
        set(naive.insert_many(list(scenario.static_tuples)))
    for switch_id, packet in scenario.trace()[:60]:
        packet_tuple = scenario.packet_in_tuple(switch_id, packet)
        derived_indexed = indexed.insert(packet_tuple)
        derived_naive = naive.insert(packet_tuple)
        assert set(derived_indexed) == set(derived_naive), \
            f"{name}: diverged on {packet_tuple}"
    assert database_state(indexed) == database_state(naive)
    assert indexed.database.derived_tuples() == naive.database.derived_tuples()


def test_multi_atom_join_matches_oracle():
    source = (
        "r1 J(@X,A,C) :- R(@X,A,B), S(@X,B,C).\n"
        "r2 K(@X,C) :- J(@X,A,C), T(@X,C), C > 10.\n"
    )
    indexed, naive = build_pair(source)
    tuples = []
    for i in range(15):
        tuples.append(make_tuple("R", "n1", f"a{i % 4}", i % 6))
        tuples.append(make_tuple("S", "n1", i % 6, i))
        tuples.append(make_tuple("T", "n1", i))
    for tup in tuples:
        assert set(indexed.insert(tup)) == set(naive.insert(tup))
    assert database_state(indexed) == database_state(naive)


def test_deletions_match_oracle_on_persistent_tables():
    """Deletion agrees with the oracle's recompute (acyclic,
    persistent-only program), including delete-then-reinsert round-trips."""
    source = (
        "r1 B(@X,P) :- A(@X,P), P > 0.\n"
        "r2 C(@X,P) :- B(@X,P), D(@X,P).\n"
        "r3 C(@X,P) :- E(@X,P).\n"
    )
    indexed, naive = build_pair(source)
    base = [make_tuple(table, "n1", value)
            for table in ("A", "D", "E")
            for value in range(8)]
    assert set(indexed.insert_many(base)) == set(naive.insert_many(base))
    script = [("remove", make_tuple("A", "n1", 3)),
              ("remove", make_tuple("E", "n1", 3)),
              ("insert", make_tuple("A", "n1", 3)),
              ("remove", make_tuple("D", "n1", 5)),
              ("remove", make_tuple("A", "n1", 5)),
              ("insert", make_tuple("D", "n1", 5)),
              ("remove", make_tuple("E", "n1", 7)),
              ("insert", make_tuple("A", "n1", 5))]
    for action, tup in script:
        changed_indexed = getattr(indexed, action)(tup)
        changed_naive = getattr(naive, action)(tup)
        assert set(changed_indexed) == set(changed_naive), \
            f"diverged on {action} {tup}"
        assert database_state(indexed) == database_state(naive)


def test_keyed_cone_deletions_match_oracle_and_a_fresh_engine():
    """Deletions through a primary-key table — here over four SCC groups,
    the recursive ``Reach`` among them.  After every removal the tables and
    flags must equal the oracle's, and tables, flags *and* supports a fresh
    engine's over the remaining base tuples."""
    source = (
        "r1 Reach(@X,Y) :- Link(@X,Y).\n"
        "r2 Reach(@X,Z) :- Link(@X,Y), Reach(@Y,Z).\n"
        "r3 Best(@X,Y,C) :- Reach(@X,Y), Cost(@X,Y,C).\n"
        "r4 Back(@X,C) :- Best(@X,Y,C), Reach(@Y,X).\n"
    )
    best = TableSchema("Best", ("X", "Y", "C"), primary_key=("X", "Y"))

    def build(engine_class, base=()):
        engine = engine_class(parse_program(source))
        engine.register_schema(best)
        engine.insert_many(list(base))
        return engine

    def bookkeeping(engine):
        # Flags cover the tables too: every stored tuple carries one.
        return (engine.database._flags, engine._supports)

    # A cycle a -> b -> c -> a with a tail c -> d; one cost per pair, so no
    # two live derivations ever disagree on a Best key ...
    nodes = "abcd"
    base = [make_tuple("Link", *pair) for pair in ("ab", "bc", "ca", "cd")]
    base += [make_tuple("Cost", x, y, nodes.index(x) * 4 + nodes.index(y))
             for x in nodes for y in nodes]
    indexed, naive = build(Engine, base), build(NaiveEngine, base)
    # ... except this one: its key update evicts Best(a,b,1).
    for engine in (indexed, naive):
        engine.insert(make_tuple("Cost", "a", "b", 99))
        assert not engine.contains(make_tuple("Best", "a", "b", 1))
    script = [("remove", make_tuple("Cost", "a", "b", 99)),  # frees the key
              ("remove", make_tuple("Link", "c", "a")),      # opens the cycle
              ("remove", make_tuple("Cost", "b", "d", 7)),
              ("insert", make_tuple("Link", "c", "a")),
              ("remove", make_tuple("Link", "b", "c")),
              ("remove", make_tuple("Link", "a", "b"))]
    for step, (action, tup) in enumerate(script):
        assert set(getattr(indexed, action)(tup)) == \
            set(getattr(naive, action)(tup)), f"diverged on {action} {tup}"
        assert database_state(indexed) == database_state(naive)
        if action == "remove":
            fresh = build(Engine, indexed.database.base_in_order())
            assert bookkeeping(indexed) == bookkeeping(fresh), \
                f"{action} {tup} left other state than a rebuild"
        if step == 0:
            assert indexed.contains(make_tuple("Best", "a", "b", 1)), \
                "the evicted tuple did not reoccupy the freed key"
    assert indexed.tuples("Best") == {make_tuple("Best", "c", "a", 8),
                                      make_tuple("Best", "c", "d", 11)}


def test_wildcard_tuples_match_oracle():
    # Wildcard values are ordinary values for joins but match anything in
    # selections; both evaluators must agree on the combination.
    source = "r F(@X,P) :- G(@X,P), P == 5.\n"
    indexed, naive = build_pair(source)
    for tup in [make_tuple("G", "n1", "*"), make_tuple("G", "n1", 5),
                make_tuple("G", "n1", 6)]:
        assert set(indexed.insert(tup)) == set(naive.insert(tup))
    assert database_state(indexed) == database_state(naive)


def _bulk_join(n):
    """n S tuples, then n R tuples that each join exactly one S."""
    return ("r J(@X,A,C) :- R(@X,A,B), S(@X,B,C).",
            [("insert", make_tuple("S", "n1", i, i * 3)) for i in range(n)]
            + [("insert", make_tuple("R", "n1", f"a{i}", i)) for i in range(n)])


def _bulk_delete(n):
    """A two-rule derivation chain, then every other A tuple retracted."""
    return ("r1 B(@X,P) :- A(@X,P).\n"
            "r2 C(@X,P) :- B(@X,P), K(@X,P).\n",
            [("insert", make_tuple(table, "n1", i))
             for table in ("A", "K") for i in range(n)]
            + [("remove", make_tuple("A", "n1", i)) for i in range(0, n, 2)])


def _wide_program(rules, inserts):
    """``rules`` selective rules over one trigger table: every insertion
    sweeps all of them and fires one."""
    return ("\n".join(f"r{index} Out(@X, P) :- In(@X, S, P), S == {index}."
                      for index in range(rules)),
            [("insert", make_tuple("In", "n1", i % rules, i))
             for i in range(inserts)])


@pytest.mark.parametrize("source,script", [
    pytest.param(*_bulk_join(120), id="join"),
    pytest.param(*_bulk_delete(60), id="delete"),
    pytest.param(*_wide_program(60, 40), id="rule_scaling"),
])
def test_bulk_workloads_match_oracle(source, script):
    indexed, naive = build_pair(source)
    for action, tup in script:
        assert set(getattr(indexed, action)(tup)) == \
            set(getattr(naive, action)(tup)), f"diverged on {action} {tup}"
    assert indexed.database.derived_tuples(), "the workload derives nothing"
    assert database_state(indexed) == database_state(naive)
