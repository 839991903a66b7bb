"""End-to-end tests for the Q1-Q5 scenarios and the repair pipeline."""

import pytest

from repro.api import RepairConfig, RepairSession
from repro.backtest import Backtester
from repro.meta import MetaProvenanceExplorer
from repro.repair import ChangeAssignment, ChangeConstant
from repro.scenarios import SCENARIO_BUILDERS, all_scenarios, build_scenario
from repro.scenarios.other_languages import ImperativeQ1Scenario, PolicyQ1Scenario
from test_paper_tables import REFERENCE_CANDIDATES


@pytest.fixture(scope="module")
def reports():
    """Diagnose every scenario once (shared across the tests below)."""
    out = {}
    for name in sorted(SCENARIO_BUILDERS):
        scenario = build_scenario(name)
        config = RepairConfig(max_candidates=14)
        out[name] = (scenario, RepairSession(config, scenario=scenario).run())
    return out


class TestScenarioDefinitions:
    def test_registry_contains_all_five(self):
        assert set(SCENARIO_BUILDERS) == {"Q1", "Q2", "Q3", "Q4", "Q5"}
        assert len(all_scenarios()) == 5

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_scenario("Q9")

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_baseline_reproduces_the_symptom(self, name):
        """The buggy program must actually exhibit the reported problem."""
        scenario = build_scenario(name)
        stats = scenario.recorded_run().baseline
        assert not scenario.is_effective(stats), \
            f"{name}: the symptom should be present under the buggy program"

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_is_effective_on_the_baseline_and_the_reference_repair(self, name):
        """The symptom check, pinned on the two replays that define it: the
        buggy program shows the symptom, the paper's repair removes it."""
        scenario = build_scenario(name)
        explorer = MetaProvenanceExplorer(
            scenario.program, scenario.history_index(), max_candidates=14)
        (reference,) = [
            candidate for candidate
            in explorer.explore_missing(scenario.goal()).candidates
            if candidate.description == REFERENCE_CANDIDATES[name]]
        backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
        assert not scenario.is_effective(backtester.baseline())
        assert scenario.is_effective(backtester.evaluate(reference).stats)

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_trace_is_deterministic(self, name):
        scenario = build_scenario(name)
        first = [(s, p.src_ip, p.dst_ip, p.dst_port) for s, p in scenario.trace()]
        second = [(s, p.src_ip, p.dst_ip, p.dst_port) for s, p in scenario.trace()]
        assert first == second


class TestDiagnosisPipeline:
    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_every_scenario_gets_a_surviving_repair(self, reports, name):
        _, report = reports[name]
        generated, surviving = report.counts()
        assert generated >= 2
        assert surviving >= 1

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_suggestions_are_in_complexity_order(self, reports, name):
        _, report = reports[name]
        costs = [r.candidate.cost for r in report.suggestions()]
        assert costs == sorted(costs)

    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_phase_timings_are_recorded(self, reports, name):
        _, report = reports[name]
        assert report.timings.total > 0
        assert set(report.timings.as_dict()) == {
            "history_lookups", "constraint_solving", "patch_generation",
            "replay", "total"}

    def test_q1_reference_repair_accepted(self, reports):
        _, report = reports["Q1"]
        accepted = report.suggestions()
        assert any(
            any(isinstance(e, ChangeConstant) and e.rule == "r7" and e.new_value == 3
                for e in r.candidate.edits)
            for r in accepted)

    def test_q2_reference_repair_accepted(self, reports):
        _, report = reports["Q2"]
        assert any(
            any(isinstance(e, ChangeConstant) and e.rule == "q2c" and e.new_value == 7
                for e in r.candidate.edits)
            for r in report.suggestions())

    def test_q5_reference_repair_accepted(self, reports):
        _, report = reports["Q5"]
        assert any(
            any(isinstance(e, ChangeAssignment) and e.rule == "f1" and e.var == "Hip"
                for e in r.candidate.edits)
            for r in report.suggestions())

    def test_summary_is_readable(self, reports):
        _, report = reports["Q1"]
        text = report.summary()
        assert "Q1" in text and "turnaround" in text and "suggested" in text


class TestOtherLanguages:
    def test_policy_scenario_finds_the_fix(self):
        report = PolicyQ1Scenario().diagnose()
        assert report.accepted >= 1
        assert any(r.accepted and "switch=3" in r.description for r in report.results)

    def test_imperative_scenario_finds_the_fix(self):
        report = ImperativeQ1Scenario().diagnose()
        assert report.accepted >= 1
        assert any(r.accepted and "3" in r.description for r in report.results)

    def test_policy_generates_fewer_or_equal_candidates(self):
        assert PolicyQ1Scenario().diagnose().generated <= \
            ImperativeQ1Scenario().diagnose().generated
