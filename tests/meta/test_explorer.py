"""Tests for meta provenance exploration and repair generation.

These tests recreate the paper's running example (Figures 1, 2, 6 and 7):
a copy-and-paste bug in rule r7 prevents switch S3 from getting a flow entry
for HTTP traffic, and meta provenance must suggest the fix ``Swi == 2`` ->
``Swi == 3`` (among others), while the positive-symptom machinery must be
able to remove an unwanted flow entry.
"""

import pytest

from repro.meta import (
    ExistingTupleGoal,
    HistoryIndex,
    MetaProvenanceExplorer,
    MissingTupleGoal,
)
from repro.meta.costs import CostModel, uniform_cost_model
from repro.meta.metatuples import ConstMeta, SelMeta
from repro.ndlog import Engine, TableSchema, make_tuple, parse_program
from repro.repair import (
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    CopyRule,
    DeleteSelection,
    InsertTuple,
    apply_candidate,
)

from recording_oracle import derivations_of, history_from_engine
from reference_engine import NaiveEngine

FIGURE2_PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.
r3 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 53, Prt := -1.
r4 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr != 80, Prt := -1.
r5 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 53, Prt := 2.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


@pytest.fixture
def program():
    return parse_program(FIGURE2_PROGRAM, name="figure2")


@pytest.fixture
def history(program):
    """History: HTTP packets seen at switches 1, 2 and 3, plus DNS at 1."""
    tuples = [
        make_tuple("PacketIn", "C", 1, 80),
        make_tuple("PacketIn", "C", 2, 80),
        make_tuple("PacketIn", "C", 3, 80),
        make_tuple("PacketIn", "C", 1, 53),
        make_tuple("WebLoadBalancer", "C", 80, 2),
    ]
    return HistoryIndex(tuples)


@pytest.fixture
def explorer(program, history):
    return MetaProvenanceExplorer(program, history)


@pytest.fixture
def q1_goal():
    """The Q1 symptom: S3 should have a flow entry sending HTTP to port 2."""
    return MissingTupleGoal.create("FlowTable", {0: 3, 1: 80, 2: 2})


def candidate_with_edit(candidates, edit_type, **attrs):
    """Find candidates containing an edit of the given type and attributes."""
    found = []
    for candidate in candidates:
        for edit in candidate.edits:
            if isinstance(edit, edit_type) and all(
                    getattr(edit, key) == value for key, value in attrs.items()):
                found.append(candidate)
                break
    return found


class TestQ1MissingFlowEntry:
    def test_generates_multiple_candidates(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        assert len(result.candidates) >= 4

    def test_contains_the_intuitive_fix(self, explorer, q1_goal):
        """The fix a human would choose: Swi == 2  ->  Swi == 3 in r7."""
        result = explorer.explore_missing(q1_goal)
        matches = candidate_with_edit(result.candidates, ChangeConstant,
                                      rule="r7", new_value=3)
        assert matches, "expected the Swi==2 -> Swi==3 repair for r7"

    def test_contains_operator_change_fixes(self, explorer, q1_goal):
        """Table 2 candidates C/D/E: Swi != 2, Swi >= 2, Swi > 2."""
        result = explorer.explore_missing(q1_goal)
        ops = {e.new_op for c in result.candidates for e in c.edits
               if isinstance(e, ChangeOperator) and e.rule in ("r5", "r6", "r7")}
        assert {"!=", ">", ">="} & ops

    def test_contains_delete_selection_fix(self, explorer, q1_goal):
        """Table 2 candidate F: deleting Swi == 2 in r7."""
        result = explorer.explore_missing(q1_goal)
        matches = candidate_with_edit(result.candidates, DeleteSelection, rule="r7")
        assert matches

    def test_contains_manual_flow_entry(self, explorer, q1_goal):
        """Table 2 candidate A: manually installing a flow entry."""
        result = explorer.explore_missing(q1_goal)
        matches = candidate_with_edit(result.candidates, InsertTuple)
        flow_inserts = [c for c in matches
                        if any(isinstance(e, InsertTuple)
                               and e.tuple.table == "FlowTable"
                               for e in c.edits)]
        assert flow_inserts

    def test_candidates_sorted_by_cost(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        costs = [c.cost for c in result.candidates]
        assert costs == sorted(costs)

    def test_all_candidates_within_cutoff(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        assert all(c.cost <= explorer.cost_model.cutoff for c in result.candidates)

    def test_repairs_actually_fix_the_symptom(self, program, history, explorer, q1_goal):
        """Applying any generated program repair makes the flow entry derivable."""
        result = explorer.explore_missing(q1_goal)
        assert result.candidates
        effective = 0
        for candidate in result.candidates:
            repaired = apply_candidate(program, candidate)
            engine = Engine(repaired.program)
            engine.register_schema(TableSchema("FlowTable", ("Swi", "Hdr", "Prt")))
            base = [t for t in history.tuples_of("PacketIn")]
            base += history.tuples_of("WebLoadBalancer")
            base += repaired.inserted_tuples
            engine.insert_many(base)
            entries = {t for t in engine.tuples("FlowTable")
                       if t.values[0] == 3 and t.values[1] == 80 and t.values[2] == 2}
            if entries:
                effective += 1
        # The overwhelming majority of candidates must be effective; a few
        # (e.g. repairs relying on wildcard values) may need the simulator's
        # flow-table semantics rather than pure datalog derivation.
        assert effective >= len(result.candidates) * 0.7

    def test_meta_provenance_tree_mentions_the_new_constant(self, explorer, q1_goal):
        """Figure 6: the tree contains NEXIST[Const(Rul=r7, Val=3)]."""
        result = explorer.explore_missing(q1_goal)
        candidates = candidate_with_edit(result.candidates, ChangeConstant,
                                         rule="r7", new_value=3)
        tree = candidates[0].tree
        const_vertices = tree.find(
            lambda v: isinstance(v.subject, ConstMeta) and v.subject.value == 3)
        assert const_vertices
        sel_vertices = tree.find(lambda v: isinstance(v.subject, SelMeta))
        assert sel_vertices

    def test_forest_contains_multiple_trees(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        assert len(result.forest) >= 2

    def test_stats_are_populated(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        assert result.stats.history_lookups > 0
        assert result.stats.solver_invocations > 0
        assert result.stats.candidates_generated >= len(result.candidates)


class TestGoalHandling:
    def test_goal_with_unconstrained_columns(self, explorer):
        goal = MissingTupleGoal.create("FlowTable", {0: 3, 1: 80})
        result = explorer.explore_missing(goal)
        assert result.candidates

    def test_goal_for_unknown_table_only_inserts(self, explorer):
        goal = MissingTupleGoal.create("NoSuchTable", {0: 1})
        result = explorer.explore_missing(goal)
        # No rule derives it: besides the manual insertion, the only way to
        # get such a tuple is to re-point (or copy) a rule that fired with a
        # compatible head — r1 derived FlowTable(1, 80, 2).
        assert result.candidates
        kinds = {type(e) for c in result.candidates for e in c.edits}
        assert InsertTuple in kinds
        assert kinds <= {InsertTuple, ChangeRuleHead, CopyRule}

    def test_goal_str(self):
        goal = MissingTupleGoal.create("FlowTable", {0: 3})
        assert "FlowTable" in str(goal)


class TestCostOrdering:
    def test_uniform_cost_model_changes_ordering(self, program, history, q1_goal):
        plausible = MetaProvenanceExplorer(program, history,
                                           cost_model=CostModel())
        uniform = MetaProvenanceExplorer(program, history,
                                         cost_model=uniform_cost_model())
        result_p = plausible.explore_missing(q1_goal)
        result_u = uniform.explore_missing(q1_goal)
        # Under the plausibility model, a constant change must rank above a
        # selection deletion; under the uniform model they tie.
        const_cost = next(c.cost for c in result_p.candidates
                          if any(isinstance(e, ChangeConstant) for e in c.edits))
        delete_cost = next(c.cost for c in result_p.candidates
                           if any(isinstance(e, DeleteSelection) for e in c.edits))
        assert const_cost < delete_cost
        uniform_costs = {c.cost for c in result_u.candidates
                         if len(c.edits) == 1}
        assert len(uniform_costs) == 1

    def test_first_candidate_is_cheapest(self, explorer, q1_goal):
        result = explorer.explore_missing(q1_goal)
        assert result.best().cost == min(c.cost for c in result.candidates)


class TestPositiveSymptoms:
    """Figure 7: removing a flow entry that exists but should not."""

    @pytest.fixture
    def engine(self, program):
        engine = NaiveEngine(program)
        engine.register_schema(TableSchema("PacketIn", ("C", "Swi", "Hdr")))
        engine.register_schema(TableSchema("WebLoadBalancer", ("C", "Hdr", "Prt")))
        engine.register_schema(TableSchema("FlowTable", ("Swi", "Hdr", "Prt")))
        engine.insert(make_tuple("WebLoadBalancer", "C", 80, 2))
        engine.insert(make_tuple("PacketIn", "C", 1, 80))
        return engine

    def test_candidates_remove_the_unwanted_entry(self, program, engine):
        unwanted = make_tuple("FlowTable", 1, 80, 2)
        assert engine.contains(unwanted)
        history = history_from_engine(engine, include_derived=False)
        explorer = MetaProvenanceExplorer(program, history)
        goal = ExistingTupleGoal(unwanted)
        result = explorer.explore_existing(goal, derivations_of(engine, unwanted))
        assert result.candidates
        # Apply each candidate and verify the tuple is no longer derived.
        for candidate in result.candidates:
            repaired = apply_candidate(program, candidate)
            check = Engine(repaired.program)
            removed = set(repaired.removed_tuples)
            base = [t for t in engine.database.base_tuples() if t not in removed]
            base += [make_tuple("PacketIn", "C", 1, 80)]
            base = [t for t in base if t not in removed]
            base += repaired.inserted_tuples
            check.insert_many(base)
            assert not check.contains(unwanted), candidate.description

    def test_green_repair_of_figure7(self, program, engine):
        """Changing Swi==1 in r1 to a different switch id breaks the derivation."""
        unwanted = make_tuple("FlowTable", 1, 80, 2)
        history = history_from_engine(engine, include_derived=False)
        explorer = MetaProvenanceExplorer(program, history)
        result = explorer.explore_existing(
            ExistingTupleGoal(unwanted), derivations_of(engine, unwanted))
        const_changes = [c for c in result.candidates
                         if any(isinstance(e, ChangeConstant) and e.rule == "r1"
                                for e in c.edits)]
        assert const_changes

    def test_existing_tree_has_exist_vertices(self, program, engine):
        unwanted = make_tuple("FlowTable", 1, 80, 2)
        history = history_from_engine(engine, include_derived=False)
        explorer = MetaProvenanceExplorer(program, history)
        result = explorer.explore_existing(
            ExistingTupleGoal(unwanted), derivations_of(engine, unwanted))
        tree = result.forest.trees[0]
        assert all(v.kind == "EXIST" for v in tree.vertices())


class TestHistoryIndex:
    def test_matching(self, history):
        matches = history.matching("PacketIn", {1: 3, 2: 80})
        assert matches == [make_tuple("PacketIn", "C", 3, 80)]

    def test_from_engine_includes_transient_events(self, program):
        engine = NaiveEngine(program)
        engine.register_schema(TableSchema("PacketIn", ("C", "Swi", "Hdr"),
                                           persistent=False))
        engine.insert(make_tuple("PacketIn", "C", 3, 80))
        history = history_from_engine(engine)
        assert history.count("PacketIn") == 1

    def test_tables_follow_first_seen_order(self):
        # An explorer replays the history table by table: the order must be
        # the history's own, never a set's (which follows the hash seed).
        names = ["Zeta", "PacketIn", "Alpha", "FlowTable", "M"]
        history = HistoryIndex([make_tuple(name, "C", 1) for name in names]
                               + [make_tuple("Alpha", "C", 2)])
        assert history.tables() == names

    def test_lookup_counter_increments(self, history):
        before = history.lookup_count
        history.tuples_of("PacketIn")
        assert history.lookup_count == before + 1
