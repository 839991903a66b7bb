"""Tests for repair edits, candidate application, and the cost model."""

from dataclasses import replace

import pytest

from metarules import (
    MUDLOG_META_TUPLES,
    meta_model_summary,
    mudlog_meta_program,
)
from repro.meta import EXIST, MetaProvenanceExplorer, OperMeta
from repro.meta.costs import CostModel, DEFAULT_COSTS
from repro.ndlog import Const, Var, make_tuple, parse_program
from repro.repair import (
    ChangeAssignment,
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    CopyRule,
    DeleteSelection,
    Edit,
    InsertTuple,
    RepairApplicationError,
    RepairCandidate,
    apply_candidate,
    deduplicate,
)
from repro.scenarios import build_scenario

from metaprogram import MetaProgram
from padded_programs import padded_program
from helpers import rule_named, uniform_cost_model

PROGRAM = """
r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
r7 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 2, Hdr == 80, Prt := 2.
"""


@pytest.fixture
def program():
    return parse_program(PROGRAM)


def single(edit, cost=1.0):
    return RepairCandidate(edits=(edit,), cost=cost)


class TestApplyEdits:
    def test_change_constant(self, program):
        repaired = apply_candidate(program, single(
            ChangeConstant("r7", 0, "right", 2, 3)))
        assert rule_named(repaired.program, "r7").selections[0].right == Const(3)
        # The original program is untouched.
        assert rule_named(program, "r7").selections[0].right == Const(2)

    def test_change_operator(self, program):
        repaired = apply_candidate(program, single(
            ChangeOperator("r7", 0, "==", ">=")))
        assert rule_named(repaired.program, "r7").selections[0].op == ">="

    def test_delete_selection(self, program):
        repaired = apply_candidate(program, single(DeleteSelection("r7", 0)))
        assert len(rule_named(repaired.program, "r7").selections) == 1

    def test_multiple_deletions_apply_in_reverse_index_order(self, program):
        candidate = RepairCandidate(edits=(
            DeleteSelection("r7", 0, "Swi == 2"),
            DeleteSelection("r7", 1, "Hdr == 80"),
        ), cost=4.0)
        repaired = apply_candidate(program, candidate)
        assert rule_named(repaired.program, "r7").selections == ()

    def test_change_assignment(self, program):
        repaired = apply_candidate(program, single(
            ChangeAssignment("r7", 0, "Prt", "2", Const(9))))
        assert rule_named(repaired.program, "r7").assignments[0].expr == Const(9)

    def test_change_rule_head_and_copy(self, program):
        r7 = rule_named(program, "r7")
        new_head = replace(r7.head, table="PacketOut")
        repaired = apply_candidate(program, single(ChangeRuleHead("r7", new_head)))
        assert rule_named(repaired.program, "r7").head.table == "PacketOut"
        assert r7.head.table == "FlowTable"
        copied_rule = replace(r7, name="r7_copy")
        repaired = apply_candidate(program, single(CopyRule("r7", copied_rule)))
        assert len(repaired.program.rules) == 3
        assert repaired.program.rules[2] is copied_rule

    def test_copy_rule_appends_a_new_rule_last(self, program):
        extra = replace(rule_named(program, "r7"), name="r9")
        repaired = apply_candidate(program, single(CopyRule("r7", extra)))
        assert [r.name for r in repaired.program.rules] == ["r1", "r7", "r9"]
        assert [r.name for r in program.rules] == ["r1", "r7"]

    def test_deleting_the_only_selection_keeps_the_body(self, program):
        repaired = apply_candidate(program, single(DeleteSelection("r1", 0)))
        rule = rule_named(repaired.program, "r1")
        assert rule.selections == ()
        assert rule.body == rule_named(program, "r1").body

    def test_data_edits_alone_return_the_program_itself(self, program):
        flow = make_tuple("FlowTable", 3, 80, 2)
        repaired = apply_candidate(program, single(InsertTuple(flow)))
        assert repaired.program is program
        assert repaired.inserted_tuples == [flow]

    def test_tuple_edits_are_tracked(self, program):
        flow = make_tuple("FlowTable", 3, 80, 2)
        repaired = apply_candidate(program, RepairCandidate(
            edits=(InsertTuple(flow), ChangeConstant("r7", 0, "right", 2, 3)),
            cost=2.0))
        assert repaired.inserted_tuples == [flow]
        assert rule_named(repaired.program, "r7").selections[0].right == Const(3)
        assert "insert" in repaired.summary()

    def test_unknown_rule_raises(self, program):
        with pytest.raises(RepairApplicationError):
            apply_candidate(program, single(ChangeConstant("r99", 0, "right", 2, 3)))
        with pytest.raises(RepairApplicationError):
            apply_candidate(program, single(DeleteSelection("r99", 0)))

    def test_index_out_of_range_raises(self, program):
        with pytest.raises(RepairApplicationError):
            apply_candidate(program, single(DeleteSelection("r7", 5)))
        with pytest.raises(RepairApplicationError):
            apply_candidate(program, single(
                ChangeAssignment("r7", 1, "Prt", "2", Const(9))))

    def test_an_edit_of_no_known_kind_raises(self, program):
        with pytest.raises(RepairApplicationError, match="unknown edit type"):
            apply_candidate(program, RepairCandidate(
                edits=(Edit(),), cost=1.0, description="bare edit"))


class TestCandidates:
    def test_description_is_derived_from_edits(self):
        candidate = single(ChangeConstant("r7", 0, "right", 2, 3))
        assert "change constant" in candidate.description
        assert candidate.tag.startswith("v")

    def test_deduplicate_keeps_cheapest(self):
        a = RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),), cost=2.0)
        b = RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),), cost=1.0)
        c = RepairCandidate(edits=(DeleteSelection("r7", 0),), cost=2.0)
        unique = deduplicate([a, b, c])
        assert len(unique) == 2
        assert unique[0].cost == 1.0


class TestCostModel:
    def test_relative_ordering_of_default_costs(self):
        model = CostModel()
        constant = model.edit_cost(ChangeConstant("r", 0, "right", 2, 3))
        operator = model.edit_cost(ChangeOperator("r", 0, "==", "!="))
        deletion = model.edit_cost(DeleteSelection("r", 0))
        assert constant < operator < deletion

    def test_far_constant_surcharge(self):
        model = CostModel()
        near = model.edit_cost(ChangeConstant("r", 0, "right", 2, 3))
        far = model.edit_cost(ChangeConstant("r", 0, "right", 2, 2009))
        assert far > near

    def test_uniform_model_is_flat(self):
        model = uniform_cost_model()
        assert model.edit_cost(ChangeConstant("r", 0, "right", 2, 3)) == \
            model.edit_cost(DeleteSelection("r", 0))

    def test_cutoff(self):
        model = CostModel()
        assert model.within_cutoff(model.cutoff)
        assert not model.within_cutoff(model.cutoff + 0.1)

    def test_every_edit_kind_has_positive_cost(self):
        # The table prices every edit class and nothing else but the
        # support insertion, so ``edit_cost`` can index it directly.
        kinds = {cls.kind for cls in Edit.__subclasses__()}
        assert len(kinds) == 7
        assert set(DEFAULT_COSTS) == kinds | {"support_tuple"}
        assert all(DEFAULT_COSTS[kind] > 0 for kind in kinds)


class TestMetaProgramExtraction:
    def test_counts_per_rule(self, program):
        meta = MetaProgram.from_program(program)
        r7 = meta.for_rule("r7")
        assert len(r7["heads"]) == 1
        assert len(r7["predicates"]) == 1
        assert len(r7["operators"]) == 2
        assert len(r7["assignments"]) == 1
        # Two selection constants (2 and 80) plus the assignment constant (2).
        assert len(r7["constants"]) == 3

    def test_locations_point_back_into_the_ast(self, program):
        meta = MetaProgram.from_program(program)
        constant = meta.constants_in_selection("r7", 0)[0]
        assert constant.location.rule == "r7"
        assert constant.location.component == "selection"
        assert constant.value == 2

    def test_program_constants_pool(self, program):
        meta = MetaProgram.from_program(program)
        assert 80 in meta.program_constants()


class TestExplorerReadsTheMetaTuples:
    """The explorer reads its constant pool and the operator of a selection
    it explains straight from the rules; both must equal the extraction."""

    @pytest.fixture(scope="class", params=["Q1", "Q2", "Q3", "Q4", "Q5",
                                           "Q1PAD"])
    def explored(self, request):
        name = request.param
        scenario = build_scenario(name.replace("PAD", ""))
        program = (padded_program(scenario, 250) if name.endswith("PAD")
                   else scenario.program)
        explorer = MetaProvenanceExplorer(program, scenario.history_index(),
                                          max_candidates=25)
        result = explorer.explore_missing(scenario.goal())
        return explorer, MetaProgram.from_program(program), result

    def test_constant_pool_is_the_programs_constants_in_order(self, explored):
        explorer, meta, _result = explored
        assert explorer._constant_hints() == meta.program_constants()

    def test_an_explained_operator_is_the_selections_oper_tuple(self,
                                                                explored):
        _explorer, meta, result = explored
        operators = [vertex.subject for candidate in result.candidates
                     for vertex in candidate.tree.vertices()
                     if vertex.kind == EXIST
                     and isinstance(vertex.subject, OperMeta)]
        for operator in operators:
            assert operator == meta.operator_of_selection(
                operator.rule, operator.location.index)


class TestMetaModel:
    def test_mudlog_meta_rules_parse(self):
        program = mudlog_meta_program()
        assert len(program.rules) == 15
        assert {"h1", "h2", "p1", "j1", "j2", "e1", "a1", "s1"} <= \
            {r.name for r in program.rules}

    def test_meta_model_summary_matches_paper_scale(self):
        summary = meta_model_summary()
        assert summary["meta_rules"] == 15
        assert summary["meta_tuples"] == len(MUDLOG_META_TUPLES) == 14
