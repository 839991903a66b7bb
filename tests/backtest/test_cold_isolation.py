"""Candidate isolation suite.

Every backtested candidate builds cold: a controller whose engine runs the
scenario's static tuples under the repaired program, on a replica of the
backtester's template topology with flow tables of its own.
What one candidate derives, installs or aborts must therefore leave no trace
on the next: each row of a mixed ``evaluate_all`` run equals the row of the
same candidate evaluated alone, in either order.  For the hand-built
candidates of Q1-Q5 (Q1's data edits and flooder included) — alone,
reversed and run twice on one backtester, with and without an abort policy
— that is the isolation axis of the contract table (``tests/contracts``);
here are the cases that need a candidate of their own: rules that fire
before the first PacketIn, a program that derives ``PacketIn``, a keyed
data edit between two rule edits and a flooder stopped mid-trace.
"""

import pytest

from repro.backtest import Backtester, EarlyAbortPolicy
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import CopyRule, InsertTuple, RepairCandidate
from repro.scenarios import build_scenario

from cases import flooding_candidate, scenario_candidates, stats_snapshot

SCENARIOS = ["Q1", "Q5"]


def _rule(source):
    return parse_program(source).rules[0]


def row(result):
    return (result.candidate.description, result.candidate.tag,
            result.effective, result.accepted, result.ks, result.notes,
            stats_snapshot(result.stats))


def rows(report):
    return [row(result) for result in report.results]


def backtester(scenario, **kwargs):
    return Backtester(scenario, ks_threshold=scenario.ks_threshold, **kwargs)


def alone(scenario, candidates, **kwargs):
    """Each candidate's row from a backtester that sees only it."""
    return [rows(backtester(scenario, **kwargs)
                 .evaluate_all([candidate]))[0]
            for candidate in candidates]


def assert_isolated(scenario, candidates, **kwargs):
    """A mixed run, in either order, reads row for row as the candidates
    evaluated alone; returns the forward report."""
    expected = alone(scenario, candidates, **kwargs)
    forward = backtester(scenario, **kwargs).evaluate_all(candidates)
    backward = backtester(scenario, **kwargs).evaluate_all(candidates[::-1])
    assert rows(forward) == expected
    assert rows(backward) == expected[::-1]
    return forward


@pytest.fixture(scope="module")
def scenarios():
    return {name: build_scenario(name) for name in SCENARIOS}


@pytest.mark.parametrize("rule_text, description", [
    ("s1 FlowTable(@Swi,Sip,Hdr,Prt) :- WebLoadBalancer(@C,Sip,Any), "
     "Swi := 3, Hdr := 80, Prt := 2.",
     "static-only body: fires before the first PacketIn"),
    ("d1 PacketIn(@C,Swi,Sip,Hdr) :- PacketIn(@C,Old,Sip,Hdr), Old == 3, "
     "Hdr == 80, Swi := 2.",
     "derives PacketIn: the table is no longer input-only"),
], ids=["static_body", "derived_packet_in"])
def test_a_rule_that_need_not_wait_for_a_packet_in_leaves_no_trace(
        scenarios, rule_text, description):
    scenario = scenarios["Q1"]
    candidates = [
        RepairCandidate(edits=(CopyRule("r1", _rule(rule_text)),), cost=2.0,
                        description=description),
        scenario_candidates("Q1")[0],
    ]
    assert_isolated(scenario, candidates)


def test_a_keyed_data_edit_mid_run_leaves_no_trace(scenarios):
    """Q5's manual ``Learned`` insertion (Table 6d candidate I) between
    two rule edits of the rule that feeds that primary-key table."""
    scenario = scenarios["Q5"]
    fix, general = scenario_candidates("Q5")
    learned = RepairCandidate(
        edits=(InsertTuple(NDTuple("Learned", ("C", 9, 21, 5))),), cost=3.0,
        description="manually insert Learned(C,9,21,5)")
    assert_isolated(scenario, [fix, learned, general])


def test_an_aborted_candidate_leaves_no_trace():
    """A flooder stopped mid-trace by the abort policy: its partial row is
    the one it gets alone, and the fix after it replays in full."""
    scenario = build_scenario("Q1")
    flooder = flooding_candidate()
    fix = scenario_candidates("Q1")[0]
    policy = EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    report = assert_isolated(scenario, [flooder, fix],
                             max_packet_in_growth=1.5, abort_policy=policy)
    aborted, accepted = report.results
    assert not aborted.accepted
    assert any(note.startswith("aborted after") for note in aborted.notes)
    assert aborted.stats.total < len(scenario.trace())
    assert accepted.accepted
    assert accepted.stats.total == len(scenario.trace())
