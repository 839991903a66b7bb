"""Differential soundness of static candidate vetting.

The acceptance contract (also stated in ``repro.analysis.vet``):

* a vetoed candidate either **fails to evaluate** or backtests
  **bit-identical** to the unpatched program;
* **no accepted repair is ever vetoed** — vetting on and off produce the
  same accepted candidates on the same candidate lists;
* vetting strictly reduces the number of replays whenever it fires, and
  every explored scenario has at least one veto at the shared budget.
"""

import json

import pytest

from repro.analysis import CandidateVetter
from repro.api import CandidateVetoed, RepairConfig, RepairSession
from repro.backtest import Backtester
from repro.events import WarmEngineStats, event_from_wire
from repro.ndlog.parser import parse_program
from repro.repair import AddRule, ChangeConstant, RepairCandidate

from analysis_helpers import (MAX_CANDIDATES, scenario_and_candidates,
                              stats_snapshot)

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]

#: Vetoes the explorer's candidate sets must produce at MAX_CANDIDATES.
EXPECTED_VETOED = {"Q1": 2, "Q2": 1, "Q3": 1, "Q4": 1, "Q5": 1}

_reports = {}


def reports_for(name):
    """(candidates, vetter, report with vetting, report without), cached."""
    if name not in _reports:
        scenario, candidates = scenario_and_candidates(name)
        mapping = scenario.mapping
        vetter = CandidateVetter(
            scenario.program,
            schemas={schema.name: schema for schema in scenario.schemas()},
            static_tuples=scenario.static_tuples,
            event_tables={mapping.packet_in_table},
            flow_table=mapping.flow_table)
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
    candidates, _vetter, (on, report_on), (off, report_off) = \
        reports_for(name)
    assert len(report_on.results) == len(candidates)
    assert len(report_off.results) == len(candidates)
    rows_on = [(r.candidate.description, r.effective, r.accepted)
               for r in report_on.results]
    rows_off = [(r.candidate.description, r.effective, r.accepted)
                for r in report_off.results]
    assert rows_on == rows_off
    # Strictly fewer replays with vetting on; the warm counters only see
    # survivors.
    assert on.warm_hits + on.warm_fallbacks == \
        len(candidates) - report_on.vetoed_count
    assert off.warm_hits + off.warm_fallbacks == len(candidates)
    assert report_off.vetoed_count == 0


def test_multiquery_backtester_vets_identically():
    scenario, candidates = scenario_and_candidates("Q1")
    _c, _v, (_on, sequential), _off = reports_for("Q1")
    multi = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                       multiquery=True)
    report = multi.evaluate_all(candidates)
    assert report.vetoed_count == sequential.vetoed_count
    assert [(r.candidate.description, r.accepted) for r in report.results] \
        == [(r.candidate.description, r.accepted)
            for r in sequential.results]


def test_rejected_unevaluable_candidates_fail_to_evaluate():
    """The other half of the contract: apply-failed / negation-unsupported
    rejects are candidates the replay machinery cannot evaluate at all."""
    scenario, _candidates = scenario_and_candidates("Q1")
    _c, vetter, _on, (off, _report) = reports_for("Q1")
    negated = parse_program(
        "neg FlowTable(@Swi, Sip, Hdr, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "!WebLoadBalancer(@Swi, Sip, Prt), Prt := 2.").rules[0]
    unevaluable = [
        RepairCandidate(edits=(ChangeConstant("no-such-rule", 0, "right",
                                              1, 2),),
                        cost=1.0, description="edit a missing rule"),
        RepairCandidate(edits=(AddRule(negated),), cost=1.4,
                        description="add a negated rule"),
    ]
    reasons = []
    for candidate in unevaluable:
        verdict = vetter.vet_candidate(candidate)
        assert verdict.rejected
        reasons.append(verdict.reason)
        with pytest.raises(Exception):
            off.evaluate(candidate)
    assert reasons == ["apply-failed", "negation-unsupported"]


# ----------------------------------------------------------------------
# Session events and wire formats
# ----------------------------------------------------------------------

def test_session_emits_veto_events_and_counters():
    config = RepairConfig.for_scenario("Q1", max_candidates=MAX_CANDIDATES)
    session = RepairSession(config)
    report = session.run()
    backtest = session.artifacts["backtest"]
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
    assert session.artifacts["backtest"].vetoed_count == 0
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
