"""Tests for backtesting: metrics, replay, ranking."""

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from repro.backtest import (
    Backtester,
    format_table,
    rank_results,
)
from repro.repair import (ChangeConstant, ChangeOperator, DeleteSelection,
                          RepairCandidate)
from repro.scenarios import build_q1

from ks_reference import ks_two_sample


@pytest.fixture(scope="module")
def q1():
    return build_q1()


@pytest.fixture(scope="module")
def q1_candidates():
    good = RepairCandidate(
        edits=(ChangeConstant("r7", 0, "right", 2, 3),), cost=1.1,
        description="change Swi==2 to Swi==3 in r7")
    harmful = RepairCandidate(
        edits=(DeleteSelection("r7", 0, "Swi == 2"),), cost=2.0,
        description="delete Swi==2 in r7")
    return good, harmful


class TestKSMetric:
    def test_identical_samples_have_zero_statistic(self):
        result = ks_two_sample([1, 2, 3, 4], [1, 2, 3, 4])
        assert result.statistic == 0.0

    def test_disjoint_samples_have_statistic_one(self):
        result = ks_two_sample([1] * 50, [2] * 50)
        assert result.statistic == pytest.approx(1.0)

    def test_empty_sample_handling(self):
        assert ks_two_sample([], []).statistic == 0.0
        assert ks_two_sample([1], []).statistic == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=60),
           st.lists(st.integers(min_value=0, max_value=5), min_size=5, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_statistic_matches_scipy(self, a, b):
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(reference.statistic, abs=1e-9)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_statistic_is_symmetric_and_bounded(self, sample):
        other = sample[::-1] + [3]
        ab = ks_two_sample(sample, other)
        ba = ks_two_sample(other, sample)
        assert ab.statistic == pytest.approx(ba.statistic)
        assert 0.0 <= ab.statistic <= 1.0


class TestSequentialBacktesting:
    def test_good_repair_accepted(self, q1, q1_candidates):
        good, _ = q1_candidates
        result = Backtester(q1, ks_threshold=q1.ks_threshold).evaluate(good)
        assert result.effective
        assert result.accepted

    def test_harmful_repair_rejected(self, q1, q1_candidates):
        _, harmful = q1_candidates
        result = Backtester(q1, ks_threshold=q1.ks_threshold).evaluate(harmful)
        assert result.effective          # it does fix the symptom ...
        assert not result.accepted       # ... but distorts other traffic

    def test_report_counts(self, q1, q1_candidates):
        report = Backtester(q1, ks_threshold=q1.ks_threshold).evaluate_all(
            list(q1_candidates))
        generated, surviving = report.counts()
        assert generated == 2
        assert surviving == 1

    def test_baseline_shows_the_symptom(self, q1):
        baseline = Backtester(q1).baseline()
        assert baseline.delivered_to(q1.target_host) == 0
        assert baseline.dropped > 0

    def test_format_table_renders(self, q1, q1_candidates):
        report = Backtester(q1, ks_threshold=q1.ks_threshold).evaluate_all(
            list(q1_candidates))
        text = format_table(report.results)
        assert "accepted" in text and "rejected" in text


    def test_elapsed_seconds_recorded_per_candidate(self, q1, q1_candidates):
        report = Backtester(q1, ks_threshold=q1.ks_threshold
                            ).evaluate_all(list(q1_candidates))
        assert report.packet_count == len(q1.trace())
        assert all(r.elapsed_seconds > 0.0 for r in report.results)
        assert report.elapsed_seconds >= max(r.elapsed_seconds
                                             for r in report.results)

    def test_every_candidate_replays_the_whole_trace(self, q1,
                                                      q1_candidates):
        """Each candidate replays cold, on its own simulator: every
        packet of the trace is decided once per candidate."""
        candidates = list(q1_candidates)
        report = Backtester(q1, ks_threshold=q1.ks_threshold
                            ).evaluate_all(candidates)
        assert report.packet_count == len(q1.trace())
        assert [r.stats.total for r in report.results] == \
            [report.packet_count] * len(candidates)
        assert report.baseline.total == report.packet_count

    def test_sharing_ratio_reads_the_share_judged_from_a_representative(
            self, q1, q1_candidates):
        """``Swi >= 1`` in r7 is deleting ``Swi == 2`` on Q1's four
        switches: the second candidate of that replay class takes the
        first one's statistics, and the ledger's ``backtest.sharing_ratio``
        row reads the share of survivors judged so (0.0 when every
        survivor replays)."""
        good, harmful = q1_candidates
        twin = RepairCandidate(
            edits=(ChangeOperator("r7", 0, "==", ">="),
                   ChangeConstant("r7", 0, "right", 2, 1)), cost=2.1,
            description="Swi==2 -> Swi>=1 in r7")
        backtester = Backtester(q1, ks_threshold=q1.ks_threshold)
        assert backtester.evaluate_all([good, harmful]).sharing_ratio() \
            == 0.0
        report = backtester.evaluate_all([good, harmful, twin])
        assert (report.shared_count, report.sharing_ratio()) == (1, 1 / 3)
        _, replayed, shared = report.results
        assert shared.stats is replayed.stats
        assert (shared.effective, shared.accepted, shared.ks,
                shared.notes) == (replayed.effective, replayed.accepted,
                                  replayed.ks, ())

    def test_packet_in_growth_cap_rejects_an_effective_repair(
            self, q1, q1_candidates):
        """With the growth cap below 1.0 every effective candidate trips
        the controller-load check; without it the same candidate passes."""
        good, _ = q1_candidates
        capped = Backtester(q1, ks_threshold=q1.ks_threshold,
                            max_packet_in_growth=0.5).evaluate_all([good])
        assert capped.results[0].effective
        assert not capped.results[0].accepted
        relaxed = Backtester(q1, ks_threshold=q1.ks_threshold
                             ).evaluate_all([good])
        assert relaxed.results[0].accepted


class TestResultFormatting:
    def test_str_uses_pass_fail_verdicts(self, q1, q1_candidates):
        """Regression: __str__ printed mangled Wingdings glyphs ("3"/"5")
        instead of readable verdicts."""
        good, harmful = q1_candidates
        backtester = Backtester(q1, ks_threshold=q1.ks_threshold)
        accepted = backtester.evaluate(good)
        rejected = backtester.evaluate(harmful)
        assert "(PASS)" in str(accepted) and "KS=" in str(accepted)
        assert "(FAIL)" in str(rejected)
        assert "(3)" not in str(accepted) and "(5)" not in str(rejected)


class TestRanking:
    def test_accepted_first_in_cost_order(self, q1, q1_candidates):
        report = Backtester(q1, ks_threshold=q1.ks_threshold).evaluate_all(
            list(q1_candidates))
        ranked = rank_results(report.results)
        assert all(r.accepted for r in ranked)
        costs = [r.candidate.cost for r in ranked]
        assert costs == sorted(costs)
