"""Regression tests for the engine's derived-state bugs:

* ``TableSchema`` silently accepted primary-key columns that are not fields;
* removing one base tuple evicted *other* base tuples that had also been
  re-derived by a rule (base/derived were overlapping sets, not flags);
* a deleted-then-reinserted base tuple never re-derived its consequences
  (the historical derivation dedup suppressed the re-insertion);
* what a removal reports came in the visit order of a set walk, which
  depends on the string hash seed; it is store order now (CI runs this file
  under two seeds);
* the recompute behind a removal counted no firings, so on a program that
  never stops deriving ``Engine.remove`` ran forever where ``insert`` had
  raised at the ``max_derivations`` guard.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.ndlog import (
    Engine,
    EvaluationError,
    NDTuple,
    SchemaError,
    TableSchema,
    make_tuple,
    parse_program,
)


class TestSchemaValidation:
    def test_primary_key_must_name_existing_fields(self):
        with pytest.raises(SchemaError) as excinfo:
            TableSchema("Config", ("Node", "Key", "Value"),
                        primary_key=("Node", "Mode"))
        assert "Mode" in str(excinfo.value)
        assert "Config" in str(excinfo.value)

    def test_valid_primary_key_accepted(self):
        schema = TableSchema("Config", ("Node", "Key", "Value"),
                             primary_key=("Node", "Key"))
        assert schema.key_indexes() == (0, 1)


class TestBaseDerivedFlags:
    """A tuple can be base and derived at once; flags must not interfere."""

    def test_removing_base_tuple_keeps_rederived_base_tuple(self):
        # B(n1, 1) is inserted as base AND derived via A(n1, 1).  Removing
        # A must never evict B — it is still a base tuple in its own right.
        program = parse_program("r B(@X,P) :- A(@X,P).")
        engine = Engine(program)
        engine.insert(make_tuple("B", "n1", 1))
        engine.insert(make_tuple("A", "n1", 1))
        assert engine.database.is_base(make_tuple("B", "n1", 1))
        assert engine.database.is_derived(make_tuple("B", "n1", 1))
        disappeared = engine.remove(make_tuple("A", "n1", 1))
        assert make_tuple("B", "n1", 1) not in disappeared
        assert engine.contains(make_tuple("B", "n1", 1))
        assert engine.database.is_base(make_tuple("B", "n1", 1))

    def test_removing_base_flag_keeps_supported_derivation(self):
        # Removing the *base* status of a tuple that a rule still derives
        # leaves it in the database as a derived tuple.
        program = parse_program("r B(@X,P) :- A(@X,P).")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 1))
        engine.insert(make_tuple("B", "n1", 1))
        engine.remove(make_tuple("B", "n1", 1))
        assert engine.contains(make_tuple("B", "n1", 1))
        assert not engine.database.is_base(make_tuple("B", "n1", 1))
        assert engine.database.is_derived(make_tuple("B", "n1", 1))

    def test_unrelated_derivations_survive_deletion(self):
        program = parse_program(
            "r1 B(@X,P) :- A(@X,P).\n"
            "r2 C(@X,P) :- B(@X,P).\n"
            "r3 D(@X,P) :- E(@X,P).\n")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 1))
        engine.insert(make_tuple("E", "n1", 7))
        disappeared = engine.remove(make_tuple("A", "n1", 1))
        # The downstream cone of A disappears ...
        assert set(disappeared) == {make_tuple("B", "n1", 1),
                                    make_tuple("C", "n1", 1)}
        # ... but E's independent derivation is untouched.
        assert engine.contains(make_tuple("D", "n1", 7))


class TestDeleteRederiveRoundTrip:
    def test_reinserting_removed_base_tuple_rederives(self):
        program = parse_program("r C(@X,P) :- A(@X,P), B(@X,P), P > 0.")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 7))
        engine.insert(make_tuple("B", "n1", 7))
        assert engine.contains(make_tuple("C", "n1", 7))
        engine.remove(make_tuple("A", "n1", 7))
        assert not engine.contains(make_tuple("C", "n1", 7))
        # Round-trip: re-inserting A must re-derive C.
        derived = engine.insert(make_tuple("A", "n1", 7))
        assert make_tuple("C", "n1", 7) in derived
        assert engine.contains(make_tuple("C", "n1", 7))

    def test_repeated_round_trips_converge(self):
        program = parse_program(
            "r1 B(@X,P) :- A(@X,P).\n"
            "r2 C(@X,P) :- B(@X,P).\n")
        engine = Engine(program)
        for _ in range(3):
            engine.insert(make_tuple("A", "n1", 5))
            assert engine.contains(make_tuple("C", "n1", 5))
            engine.remove(make_tuple("A", "n1", 5))
            assert not engine.contains(make_tuple("B", "n1", 5))
            assert not engine.contains(make_tuple("C", "n1", 5))

    def test_alternative_support_keeps_tuple_alive(self):
        # C is derivable from either A1 or A2; deleting one leaves C.
        program = parse_program(
            "r1 C(@X,P) :- A1(@X,P).\n"
            "r2 C(@X,P) :- A2(@X,P).\n")
        engine = Engine(program)
        engine.insert(make_tuple("A1", "n1", 3))
        engine.insert(make_tuple("A2", "n1", 3))
        disappeared = engine.remove(make_tuple("A1", "n1", 3))
        assert disappeared == []
        assert engine.contains(make_tuple("C", "n1", 3))
        disappeared = engine.remove(make_tuple("A2", "n1", 3))
        assert disappeared == [make_tuple("C", "n1", 3)]
        assert not engine.contains(make_tuple("C", "n1", 3))

    def test_diamond_rederivation_through_shared_descendant(self):
        # D depends on B and C, both derived from A; an alternative base E
        # also derives C.  Removing A kills B and D but C survives via E,
        # and re-deriving must not resurrect D.
        program = parse_program(
            "r1 B(@X,P) :- A(@X,P).\n"
            "r2 C(@X,P) :- A(@X,P).\n"
            "r3 C(@X,P) :- E(@X,P).\n"
            "r4 D(@X,P) :- B(@X,P), C(@X,P).\n")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 1))
        engine.insert(make_tuple("E", "n1", 1))
        assert engine.contains(make_tuple("D", "n1", 1))
        disappeared = engine.remove(make_tuple("A", "n1", 1))
        assert set(disappeared) == {make_tuple("B", "n1", 1),
                                    make_tuple("D", "n1", 1)}
        assert engine.contains(make_tuple("C", "n1", 1))
        assert not engine.contains(make_tuple("D", "n1", 1))

    def test_removal_reports_in_store_order(self):
        # The golden ``chain`` case: what disappeared, in the order it
        # entered the store, under every hash seed (a set-ordered walk of
        # the deletion cone gave B, D, C under PYTHONHASHSEED=0, B, C, D
        # under 2).
        program = parse_program(
            "r1 B(@X, Y) :- A(@X, Y).\n"
            "r2 C(@X, Y) :- B(@X, Y).\n"
            "r3 D(@X, Y) :- C(@X, Y), B(@X, Y).\n")
        engine = Engine(program)
        engine.insert(make_tuple("A", 1, 10))
        engine.insert(make_tuple("A", 2, 20))
        assert engine.remove(make_tuple("A", 1, 10)) == [
            make_tuple("B", 1, 10), make_tuple("C", 1, 10),
            make_tuple("D", 1, 10)]


#: A program that never stops deriving: each B feeds an A one larger.
RUNAWAY = """
r B(@X, Y) :- A(@X, Z), Y := Z + 1.
s A(@X, Y) :- B(@X, Y).
"""
LIMIT_ERROR = ("derivation limit of 200 exceeded; "
               "the program is probably not terminating")


class TestRunawayGuard:
    def test_insert_stops_at_the_derivation_limit(self):
        engine = Engine(parse_program(RUNAWAY), max_derivations=200)
        with pytest.raises(EvaluationError, match=LIMIT_ERROR):
            engine.insert(make_tuple("A", 1, 0))

    def test_remove_spends_the_same_budget(self):
        # Run in a child with a timeout: a recompute that counts no firings
        # never returns, and must fail this test rather than hang the suite.
        script = textwrap.dedent(f"""
            from repro.ndlog import (Engine, EvaluationError, make_tuple,
                                     parse_program)
            engine = Engine(parse_program({RUNAWAY!r}), max_derivations=200)
            engine.insert(make_tuple("C", 1))
            try:
                engine.insert(make_tuple("A", 1, 0))
            except EvaluationError:
                pass
            try:
                engine.remove(make_tuple("C", 1))
            except EvaluationError as error:
                print(error)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.abspath(src), os.environ.get("PYTHONPATH")])))
        try:
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=20)
        except subprocess.TimeoutExpired:
            pytest.fail("Engine.remove on a runaway program did not return "
                        "within 20 s: the recompute ignores max_derivations")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == LIMIT_ERROR


class TestPrimaryKeyEviction:
    """Primary-key updates evict derived tuples *inside* the fixpoint; the
    engine must keep its support bookkeeping consistent."""

    PROGRAM = (
        "r1 F(@X,K,V) :- A(@X,K,V).\n"
        "r2 F(@X,K,V) :- B(@X,K,V).\n"
    )

    def _engine(self):
        engine = Engine(parse_program(self.PROGRAM))
        engine.register_schema(TableSchema("F", ("X", "K", "V"),
                                           primary_key=("X", "K")))
        return engine

    def test_delete_restores_evicted_alternative(self):
        engine = self._engine()
        engine.insert(make_tuple("A", "n1", "k", 1))
        assert engine.contains(make_tuple("F", "n1", "k", 1))
        engine.insert(make_tuple("B", "n1", "k", 2))
        # The key update replaced F(n1,k,1) with F(n1,k,2).
        assert engine.contains(make_tuple("F", "n1", "k", 2))
        assert not engine.contains(make_tuple("F", "n1", "k", 1))
        # Removing B frees the key again: F(n1,k,1) must come back
        # (recompute-from-scratch and the naive oracle both restore it).
        engine.remove(make_tuple("B", "n1", "k", 2))
        assert not engine.contains(make_tuple("F", "n1", "k", 2))
        assert engine.contains(make_tuple("F", "n1", "k", 1))

    def test_eviction_forgets_supports_so_same_firing_rederives(self):
        engine = self._engine()
        engine.insert(make_tuple("A", "n1", "k", 1))
        engine.insert(make_tuple("B", "n1", "k", 2))
        # Re-play the exact r1 firing by removing and re-inserting A; the
        # eviction must not leave a stale support that suppresses it.
        engine.remove(make_tuple("A", "n1", "k", 1))
        derived = engine.insert(make_tuple("A", "n1", "k", 1))
        assert make_tuple("F", "n1", "k", 1) in derived
        assert engine.contains(make_tuple("F", "n1", "k", 1))
        assert not engine.contains(make_tuple("F", "n1", "k", 2))


class TestIndexMaintenance:
    def test_lookup_tracks_inserts_and_removes(self):
        program = parse_program("r B(@X,P) :- A(@X,P).")
        engine = Engine(program)
        engine.insert(make_tuple("A", "n1", 1))
        engine.insert(make_tuple("A", "n2", 1))
        # A bucket lists its tuples in the order they entered the store.
        assert list(engine.database.lookup("A", 0, "n1")) == \
            [make_tuple("A", "n1", 1)]
        assert list(engine.database.lookup("A", 1, 1)) == \
            [make_tuple("A", "n1", 1), make_tuple("A", "n2", 1)]
        engine.remove(make_tuple("A", "n1", 1))
        assert list(engine.database.lookup("A", 0, "n1")) == []
        assert list(engine.database.lookup("A", 1, 1)) == \
            [make_tuple("A", "n2", 1)]

    def test_primary_key_eviction_updates_indexes(self):
        engine = Engine(parse_program("r Dummy(@X) :- NeverUsed(@X)."))
        engine.register_schema(TableSchema(
            "Config", ("Node", "Key", "Value"), primary_key=("Node", "Key")))
        engine.insert(make_tuple("Config", "n1", "mode", 1))
        engine.insert(make_tuple("Config", "n1", "mode", 2))
        assert list(engine.database.lookup("Config", 2, 1)) == []
        assert list(engine.database.lookup("Config", 2, 2)) == [
            make_tuple("Config", "n1", "mode", 2)]

    def test_selection_type_error_only_raised_when_join_completes(self):
        # A mixed-type ordered comparison raises — but only for joins that
        # actually complete.  The pushed-down trigger guard must defer the
        # error instead of raising before the other body atoms are matched.
        program = parse_program('r C(@X) :- A(@X,P), B(@X), P < "s".')
        engine = Engine(program)
        assert engine.insert(make_tuple("A", "n1", 1)) == []  # no B yet
        with pytest.raises(EvaluationError):
            engine.insert(make_tuple("B", "n1"))

    def test_join_through_index_matches_selective_bucket(self):
        # The join variable B is selective: only one S tuple matches each R.
        program = parse_program("r J(@X,A,C) :- R(@X,A,B), S(@X,B,C).")
        engine = Engine(program)
        for i in range(20):
            engine.insert(make_tuple("S", "n1", i, i * 10))
        derived = engine.insert(make_tuple("R", "n1", "a", 7))
        assert derived == [make_tuple("J", "n1", "a", 70)]
