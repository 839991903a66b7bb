"""Differential soundness of static candidate vetting.

The acceptance contract (also stated in ``repro.analysis.vet``):

* a vetoed candidate either **fails to evaluate** or backtests
  **bit-identical** to the unpatched program;
* **no accepted repair is ever vetoed** — vetting on and off produce the
  same accepted candidates on the same candidate lists;
* vetting strictly reduces the number of replays whenever it fires, and
  every explored scenario has at least one veto at the shared budget;
* the backtest's question, ``CandidateVetter.veto``, answers what the
  linter's whole verdict (``vet_candidate``) decides: the same reject
  reason, or ``None`` when the candidate is not rejected.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CandidateVetoed, RepairConfig, RepairSession
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.events import WarmEngineStats, event_from_wire
from repro.ndlog.ast import Const
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import (ChangeAssignment, ChangeConstant, ChangeOperator,
                          ChangeRuleHead, CopyRule, DeleteSelection,
                          InsertTuple, RepairCandidate)
from repro.scenarios import build_q1

from analysis_helpers import (MAX_CANDIDATES, scenario_and_candidates,
                              vetter_for)
from cases import stats_snapshot
from helpers import rule_named

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]

#: Vetoes the explorer's candidate sets must produce at MAX_CANDIDATES.
EXPECTED_VETOED = {"Q1": 2, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1}

_reports = {}


def reports_for(name):
    """(candidates, vetter, report with vetting, report without), cached."""
    if name not in _reports:
        scenario, candidates = scenario_and_candidates(name)
        vetter = vetter_for(scenario)
        on = Backtester(scenario, ks_threshold=scenario.ks_threshold)
        off = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                         static_vet=False)
        _reports[name] = (candidates, vetter,
                          (on, on.evaluate_all(candidates)),
                          (off, off.evaluate_all(candidates)))
    return _reports[name]


def _is_vetoed(result):
    return any(note.startswith("vetoed by static analysis")
               for note in result.notes)


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_scenario_has_vetoes(name):
    _candidates, _vetter, (on, report_on), _off = reports_for(name)
    assert report_on.vetoed_count == EXPECTED_VETOED[name]
    assert on.vetoed == report_on.vetoed_count
    assert sum(_is_vetoed(r) for r in report_on.results) == \
        report_on.vetoed_count


@pytest.mark.parametrize("name", SCENARIOS)
def test_vetoed_candidates_backtest_bit_identical(name):
    candidates, vetter, (_on, report_on), (_off, report_off) = \
        reports_for(name)
    baseline = stats_snapshot(report_off.baseline)
    checked = 0
    for result_on, result_off in zip(report_on.results, report_off.results):
        if not _is_vetoed(result_on):
            continue
        verdict = vetter.vet_candidate(result_on.candidate)
        assert verdict.rejected
        # These veto classes claim behaviour preservation; the real replay
        # (vetting off) must agree bit for bit.
        assert verdict.reason in ("inert-insert", "no-op-edit")
        assert stats_snapshot(result_off.stats) == baseline
        assert result_off.ks.statistic == result_on.ks.statistic
        assert result_off.effective == result_on.effective
        assert result_off.accepted == result_on.accepted
        checked += 1
    assert checked == report_on.vetoed_count


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_accepted_repair_is_vetoed(name):
    _candidates, vetter, (_on, report_on), (_off, report_off) = \
        reports_for(name)
    assert any(r.accepted for r in report_off.results)
    for result in report_off.results:
        if result.accepted:
            assert not vetter.vet_candidate(result.candidate).rejected


@pytest.mark.parametrize("name", SCENARIOS)
def test_accepted_sets_identical_and_fewer_replays(name):
    candidates, _vetter, (_on, report_on), (_off, report_off) = \
        reports_for(name)
    assert len(report_on.results) == len(candidates)
    assert len(report_off.results) == len(candidates)
    rows_on = [(r.candidate.description, r.effective, r.accepted)
               for r in report_on.results]
    rows_off = [(r.candidate.description, r.effective, r.accepted)
                for r in report_off.results]
    assert rows_on == rows_off
    # Strictly fewer replays with vetting on: a vetoed row is judged on the
    # baseline's statistics, a replayed one on statistics of its own.
    def replayed(report):
        return sum(r.stats is not report.baseline for r in report.results)

    assert replayed(report_on) == len(candidates) - report_on.vetoed_count
    assert replayed(report_off) == len(candidates)
    assert report_off.vetoed_count == 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_an_abort_policy_vets_identically(name):
    """Vetting runs before the replay: an abort policy changes how far a
    replayed candidate gets, never which candidates are vetoed."""
    scenario, candidates = scenario_and_candidates(name)
    _c, _v, (_on, whole), _off = reports_for(name)
    report = Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        abort_policy=EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    ).evaluate_all(candidates)
    assert report.vetoed_count == whole.vetoed_count
    assert [(r.candidate.description, _is_vetoed(r))
            for r in report.results] == \
        [(r.candidate.description, _is_vetoed(r)) for r in whole.results]
    for result, reference in zip(report.results, whole.results):
        if _is_vetoed(result):
            assert stats_snapshot(result.stats) == \
                stats_snapshot(reference.stats)


def test_rejected_unevaluable_candidates_fail_to_evaluate():
    """The other half of the contract: apply-failed rejects are candidates
    the replay machinery cannot evaluate at all."""
    scenario, _candidates = scenario_and_candidates("Q1")
    _c, vetter, _on, (off, _report) = reports_for("Q1")
    unevaluable = [
        RepairCandidate(edits=(ChangeConstant("no-such-rule", 0, "right",
                                              1, 2),),
                        cost=1.0, description="edit a missing rule"),
    ]
    reasons = []
    for candidate in unevaluable:
        verdict = vetter.vet_candidate(candidate)
        assert verdict.rejected
        reasons.append(verdict.reason)
        with pytest.raises(Exception):
            off.evaluate(candidate)
    assert reasons == ["apply-failed"]
    assert [vetter.veto(c) for c in unevaluable] == reasons


# ----------------------------------------------------------------------
# The veto is the verdict
# ----------------------------------------------------------------------

def assert_veto_is_the_verdict(vetter, candidates):
    """``veto`` returns the reject reason of ``vet_candidate``'s verdict,
    or ``None`` when that verdict is not a reject; returns the reasons."""
    reasons = []
    for candidate in candidates:
        verdict = vetter.vet_candidate(candidate)
        expected = verdict.reason if verdict.rejected else None
        assert vetter.veto(candidate) == expected, (candidate.edits,
                                                    verdict.describe())
        reasons.append(expected)
    return reasons


@pytest.mark.parametrize("name, max_candidates, total_rules", [
    *[(name, MAX_CANDIDATES, None) for name in SCENARIOS], ("Q1", 14, 250)],
    ids=[*SCENARIOS, "Q1PAD"])
def test_veto_is_the_verdict_on_explorer_candidates(name, max_candidates,
                                                    total_rules):
    scenario, candidates = scenario_and_candidates(name, max_candidates,
                                                   total_rules)
    reasons = assert_veto_is_the_verdict(vetter_for(scenario), candidates)
    assert any(reasons)


def _candidate(edit):
    # An explicit id leaves the process-wide tag counter alone.
    return RepairCandidate(edits=(edit,), cost=1.0, candidate_id=0)


def test_veto_is_the_verdict_on_no_op_and_shared_names():
    scenario, _candidates = scenario_and_candidates("Q1")
    q1 = scenario.program
    same_value = _candidate(ChangeConstant("r7", 0, "right", 2, 2))
    to_s3 = _candidate(ChangeConstant("r7", 0, "right", 2, 3))
    assert assert_veto_is_the_verdict(vetter_for(scenario),
                                      [same_value, to_s3]) == \
        ["no-op-edit", None]
    # Two rules named r7: an edit names the first, and the second — the
    # value the edit produces — is left alone.
    twin = parse_program(
        "r7 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
        "Swi == 3, Hdr == 80, Prt := 2.").rules[0]
    shared = vetter_for(scenario, dataclasses.replace(
        q1, rules=q1.rules + (twin,)))
    reasons = assert_veto_is_the_verdict(
        shared, [same_value, to_s3, _candidate(DeleteSelection("r7", 0))])
    assert reasons[0] == "no-op-edit"


Q1_RULES = ("r1", "r2", "r5", "r6", "r7", "r8", "r9", "r10")
RULE_NAMES = st.sampled_from(Q1_RULES + ("r99",))
INDEXES = st.integers(0, 2)
VALUES = st.sampled_from((0, 1, 2, 3, 53, 80, 101, "*", "C"))
TUPLES = st.one_of(
    st.builds(lambda ip, port: NDTuple("WebLoadBalancer", ("C", ip, port)),
              st.sampled_from((99, 101, 102, 150, "*")), st.integers(0, 3)),
    st.builds(lambda swi, port: NDTuple("FlowTable", (swi, "*", 80, port)),
              st.integers(1, 4), st.integers(1, 3)),
    st.builds(lambda swi, hdr: NDTuple("PacketIn", ("*", swi, "*", hdr)),
              st.integers(1, 5), st.sampled_from((53, 80))),
    st.builds(lambda value: NDTuple("Unread", ("C", value)), VALUES))


def _added_rule(name):
    """A copy of Q1's rule ``name`` under a new name."""
    rule = rule_named(build_q1().program, name)
    return CopyRule(name, dataclasses.replace(rule, name=f"{name}_added"))


def _retargeted_head(table):
    """Q1's rule head, writing ``table``."""
    return dataclasses.replace(build_q1().program.rules[0].head, table=table)


SINGLE_EDITS = st.one_of(
    st.builds(ChangeConstant, RULE_NAMES, INDEXES,
              st.sampled_from(("left", "right")), VALUES, VALUES),
    st.builds(ChangeOperator, RULE_NAMES, INDEXES, st.just("=="),
              st.sampled_from(("==", "!=", "<", ">", "<=", ">="))),
    st.builds(DeleteSelection, RULE_NAMES, INDEXES),
    st.builds(ChangeAssignment, RULE_NAMES, INDEXES, st.just("Prt"),
              st.just("2"), st.builds(Const, VALUES)),
    st.builds(ChangeRuleHead, RULE_NAMES,
              st.builds(_retargeted_head, st.sampled_from(("FlowTable",
                                                          "Unread")))),
    st.builds(_added_rule, st.sampled_from(Q1_RULES)),
    st.builds(InsertTuple, TUPLES))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edit=SINGLE_EDITS)
def test_veto_is_the_verdict_on_random_single_edits(edit):
    scenario, _candidates = scenario_and_candidates("Q1")
    assert_veto_is_the_verdict(vetter_for(scenario), [_candidate(edit)])


# ----------------------------------------------------------------------
# Session events and wire formats
# ----------------------------------------------------------------------

def test_session_emits_veto_events_and_counters():
    config = RepairConfig.for_scenario("Q1", max_candidates=MAX_CANDIDATES)
    session = RepairSession(config)
    report = session.run()
    backtest = session.backtest
    assert backtest.vetoed_count == EXPECTED_VETOED["Q1"]
    vetoes = session.events.of_kind("candidate_vetoed")
    assert len(vetoes) == backtest.vetoed_count
    assert all(event.reason == "inert-insert" for event in vetoes)
    stats = session.events.of_kind("warm_engine_stats")
    assert stats and stats[-1].vetoed == backtest.vetoed_count
    # Vetting must not change what the session suggests.
    assert report.suggestions()


def test_static_vet_off_suppresses_veto_events():
    config = RepairConfig.for_scenario("Q1", max_candidates=MAX_CANDIDATES,
                                       static_vet=False)
    session = RepairSession(config)
    session.run()
    assert session.backtest.vetoed_count == 0
    assert session.events.of_kind("candidate_vetoed") == []


def test_candidate_vetoed_wire_roundtrip():
    event = CandidateVetoed(description="insert support tuple",
                            reason="inert-insert",
                            note="vetoed by static analysis: inert-insert")
    assert event_from_wire(json.loads(event.to_json())) == event


def test_warm_engine_stats_wire_is_backward_compatible():
    # Records written before the static-analysis counters existed must
    # still decode (the new fields default to zero).
    old = {"kind": "warm_engine_stats", "hits": 3, "fallbacks": 1}
    event = event_from_wire(old)
    assert isinstance(event, WarmEngineStats)
    assert (event.hits, event.fallbacks) == (3, 1)
    assert (event.vetoed, event.probe_hits, event.probe_misses) == (0, 0, 0)
