"""Candidate isolation suite.

Every backtested candidate builds cold: a fresh topology and controller
whose engine runs the scenario's static tuples under the repaired program.
What one candidate derives, installs or aborts must therefore leave no trace
on the next: each row of a mixed ``evaluate_all`` run equals the row of the
same candidate evaluated alone, in either order, and a second run on the
same backtester repeats the first.

The candidates cover rule edits that join ``PacketIn``, data edits (Q1's
``FlowTable``/``WebLoadBalancer`` edits, Q5's keyed ``Learned`` table), rules
that fire before the first PacketIn, a program that derives ``PacketIn``,
and a controller flooder stopped by the early-abort policy.
"""

import pytest

from repro.backtest import Backtester, EarlyAbortPolicy
from repro.ndlog.ast import Var
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import (ChangeAssignment, ChangeConstant, ChangeRuleHead,
                          CopyRule, DeleteSelection, InsertTuple,
                          RepairCandidate)
from repro.scenarios import build_scenario

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def _rule(source):
    return parse_program(source).rules[0]


#: A head no rule reads: re-pointing Q5's ``f2`` at it stops every flow
#: entry, as deleting the rule would.
UNROUTED_HEAD = parse_program(
    "f2 Unrouted(@Swi,SipP,Dip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), "
    "Learned(@C,Swi,Dip,Prt), SipP := *.").rules[0].head


def scenario_candidates(name):
    """One plausible fix plus one overly general repair per scenario; Q1
    adds three data edits."""
    if name == "Q1":
        return [
            RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                            cost=1.1, description="r7: Swi==2 -> Swi==3"),
            RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                            cost=2.0, description="r7: delete Swi==2"),
            RepairCandidate(
                edits=(InsertTuple(NDTuple("FlowTable", (3, 101, 80, 2))),),
                cost=3.0, description="insert FlowTable(3,101,80,2)"),
            RepairCandidate(
                edits=(InsertTuple(NDTuple("WebLoadBalancer", ("C", 103, 2))),),
                cost=3.1, description="insert WebLoadBalancer(C,103,2)"),
            RepairCandidate(
                edits=(InsertTuple(NDTuple("WebLoadBalancer", ("C", 101, 1))),),
                cost=3.2, description="insert WebLoadBalancer(C,101,1)"),
        ]
    if name == "Q2":
        return [
            RepairCandidate(edits=(ChangeConstant("q2c", 2, "right", 6, 7),),
                            cost=1.1, description="q2c: Sip<6 -> Sip<7"),
            RepairCandidate(edits=(DeleteSelection("q2c", 2, "Sip < 6"),),
                            cost=2.0, description="q2c: delete Sip<6"),
        ]
    if name == "Q3":
        return [
            RepairCandidate(edits=(ChangeConstant("q3fw", 2, "right", 3, 2),),
                            cost=1.1, description="q3fw: Sip>3 -> Sip>2"),
            RepairCandidate(edits=(DeleteSelection("q3fw", 2, "Sip > 3"),),
                            cost=2.0, description="q3fw: delete Sip>3"),
        ]
    if name == "Q4":
        po_http = _rule(
            "q4poH PacketOut(@Swi,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
            "Swi == 8, Hdr == 80, Prt := 1.")
        return [
            RepairCandidate(edits=(CopyRule("q4po", po_http),), cost=1.4,
                            description="add HTTP packet-out rule"),
            RepairCandidate(edits=(CopyRule("q4po", po_http),
                                   ChangeConstant("q4http", 0, "right", 8, 9)),
                            cost=2.4,
                            description="packet-out only (no flow entries)"),
        ]
    if name == "Q5":
        return [
            RepairCandidate(edits=(ChangeAssignment("f1", 0, "Hip", "*",
                                                    Var("Sip")),),
                            cost=1.1, description="f1: Hip := * -> Sip"),
            RepairCandidate(edits=(ChangeRuleHead("f2", UNROUTED_HEAD),),
                            cost=2.0, description="f2 installs no flow entries"),
        ]
    raise ValueError(name)


def stats_snapshot(stats):
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)


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


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_candidate_reads_as_if_alone(scenarios, name):
    report = assert_isolated(scenarios[name], scenario_candidates(name))
    assert report.packet_count == len(scenarios[name].trace())


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_candidate_reads_as_if_alone_under_an_abort_policy(scenarios,
                                                                name):
    """The abort policy cuts every replay at its check points, one
    ``run_trace`` call per piece; the pieces of one candidate must not leak
    into the next either."""
    policy = EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    report = assert_isolated(scenarios[name], scenario_candidates(name),
                             max_packet_in_growth=1.5, abort_policy=policy)
    assert report.packet_count == len(scenarios[name].trace())


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_second_run_repeats_the_first(scenarios, name):
    """Nothing a run leaves behind (plan cache, baseline, counters) moves
    the next run's rows on the same backtester."""
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    reused = backtester(scenario)
    first = reused.evaluate_all(candidates)
    second = reused.evaluate_all(candidates)
    assert rows(second) == rows(first)
    assert stats_snapshot(second.baseline) == stats_snapshot(first.baseline)


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
    flooder = RepairCandidate(
        edits=(ChangeConstant("r1", 0, "right", 1, 5),), cost=3.0,
        description="r1: Swi==1 -> Swi==5 (floods controller)")
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
