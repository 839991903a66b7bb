"""Warm-engine parity suite.

Acceptance contract: ``evaluate_all`` with warm candidate switching
(checkpoint restore + program swap, the default) produces **bit-identical**
``BacktestReport``s — statistics with delivery records, KS results,
verdicts, notes and multi-query sharing counters — to the cold per-candidate
rebuild (``warm_engine=False``) for Q1-Q5 with and without ``multiquery``.

Also covered: who takes the warm switch and who builds cold inside an
otherwise-warm run (rule edits that wait for the first PacketIn are warm,
Q5's keyed ``Learned`` table included; data edits, rules with a static-only
body and programs that derive PacketIn are cold), warm interaction with
batched replay and the early-abort policy, and the warm counters the
benchmarks report.
"""

import pytest

from repro.backtest import Backtester, EarlyAbortPolicy
from repro.ndlog.ast import Const, Var
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import (AddRule, ChangeAssignment, ChangeConstant,
                          ChangeTuple, DeleteRule, DeleteSelection,
                          DeleteTuple, InsertTuple, RepairCandidate)
from repro.scenarios import build_scenario

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]
#: The two modes of the one ``Backtester``.  The ids are the class names
#: from before ``MultiQueryBacktester`` was folded into
#: ``Backtester(multiquery=True)``; keeping them keeps collected test ids.
MODE_IDS = {False: "Backtester", True: "MultiQueryBacktester"}
both_modes = pytest.mark.parametrize("multiquery", list(MODE_IDS),
                                     ids=list(MODE_IDS.values()))


def scenario_candidates(name):
    """One plausible fix plus one overly general repair per scenario (the
    same pairs as the transport parity suite)."""
    if name == "Q1":
        # The last three are data-edit candidates (InsertTuple / DeleteTuple
        # / ChangeTuple): their static fixpoint differs from the base
        # program's, so each gets a cold build.
        return [
            RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                            cost=1.1, description="r7: Swi==2 -> Swi==3"),
            RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                            cost=2.0, description="r7: delete Swi==2"),
            RepairCandidate(
                edits=(InsertTuple(NDTuple("FlowTable", (3, 101, 80, 2))),),
                cost=3.0, description="insert FlowTable(3,101,80,2)"),
            RepairCandidate(
                edits=(DeleteTuple(NDTuple("WebLoadBalancer", ("C", 103, 1))),),
                cost=3.1, description="delete WebLoadBalancer(C,103,1)"),
            RepairCandidate(
                edits=(ChangeTuple(NDTuple("WebLoadBalancer", ("C", 101, 2)),
                                   2, 1),),
                cost=3.2, description="WebLoadBalancer(C,101): port 2 -> 1"),
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
        po_http = parse_program(
            "q4poH PacketOut(@Swi,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
            "Swi == 8, Hdr == 80, Prt := 1.").rules[0]
        return [
            RepairCandidate(edits=(AddRule(po_http),), cost=1.4,
                            description="add HTTP packet-out rule"),
            RepairCandidate(edits=(AddRule(po_http), DeleteRule("q4http")),
                            cost=2.4,
                            description="packet-out only (no flow entries)"),
        ]
    if name == "Q5":
        return [
            RepairCandidate(edits=(ChangeAssignment("f1", 0, "Hip", "*",
                                                    Var("Sip")),),
                            cost=1.1, description="f1: Hip := * -> Sip"),
            RepairCandidate(edits=(DeleteRule("f2"),), cost=2.0,
                            description="delete f2"),
        ]
    raise ValueError(name)


def q5_explorer_rule_edits():
    """The four rule edits the explorer proposes for Q5, all to ``f1`` —
    the rule feeding the primary-key table ``Learned``."""
    def change(index, var, old_text, new_expr):
        return RepairCandidate(
            edits=(ChangeAssignment("f1", index, var, old_text, new_expr),),
            cost=1.1, description=f"f1: {var} := {old_text} -> {new_expr}")
    return [change(0, "Hip", "*", Const(21)), change(0, "Hip", "*", Var("Sip")),
            change(0, "Hip", "*", Var("Dip")), change(1, "Prt", "Ipt", Const(5))]


def data_edits(candidates):
    return [candidate for candidate in candidates
            if any(isinstance(edit, (InsertTuple, DeleteTuple, ChangeTuple))
                   for edit in candidate.edits)]


def stats_snapshot(stats):
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)


def report_snapshot(report):
    rows = []
    for result in report.results:
        rows.append((result.candidate.description, result.candidate.tag,
                     result.effective, result.accepted, result.ks,
                     result.notes, stats_snapshot(result.stats)))
    extra = (report.shared_evaluations, report.candidate_evaluations)
    return (stats_snapshot(report.baseline), tuple(rows), extra,
            report.packet_count)


@pytest.fixture(scope="module")
def scenarios():
    return {name: build_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def candidate_sets():
    """One candidate list per scenario, shared by the warm and cold runs
    (candidate tags are per-object and part of the report snapshot)."""
    return {name: scenario_candidates(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def cold_snapshots(scenarios, candidate_sets):
    out = {}
    for name in SCENARIOS:
        for multiquery, mode in MODE_IDS.items():
            backtester = Backtester(scenarios[name],
                                    ks_threshold=scenarios[name].ks_threshold,
                                    warm_engine=False, multiquery=multiquery)
            report = backtester.evaluate_all(candidate_sets[name])
            assert backtester.warm_hits == 0
            out[(name, mode)] = report_snapshot(report)
    return out


@both_modes
@pytest.mark.parametrize("name", SCENARIOS)
def test_warm_matches_cold(scenarios, cold_snapshots, candidate_sets, name,
                           multiquery):
    backtester = Backtester(scenarios[name],
                            ks_threshold=scenarios[name].ks_threshold,
                            multiquery=multiquery)
    report = backtester.evaluate_all(candidate_sets[name])
    assert report_snapshot(report) == \
        cold_snapshots[(name, MODE_IDS[multiquery])]
    # Every rule edit of Q1-Q5 changes a rule that joins PacketIn, so it
    # is served warm; Q1's three data-edit candidates build cold.
    cold_builds = len(data_edits(candidate_sets[name]))
    assert cold_builds == (3 if name == "Q1" else 0)
    assert backtester.warm_fallbacks == cold_builds
    assert backtester.warm_hits == len(candidate_sets[name]) - cold_builds


@both_modes
def test_q5_rule_edits_are_served_warm(scenarios, multiquery):
    """Nothing is retracted or reseeded by a warm switch, so no key
    eviction is reordered: edits to the rule that feeds Q5's primary-key
    table are warm like any other, and match cold row for row."""
    scenario = scenarios["Q5"]
    candidates = q5_explorer_rule_edits()
    warm = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      multiquery=multiquery)
    cold = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      warm_engine=False, multiquery=multiquery)
    assert report_snapshot(warm.evaluate_all(candidates)) == \
        report_snapshot(cold.evaluate_all(candidates))
    assert (warm.warm_hits, warm.warm_fallbacks) == (4, 0)


@both_modes
@pytest.mark.parametrize("rule_text, description", [
    ("s1 FlowTable(@Swi,Sip,Hdr,Prt) :- WebLoadBalancer(@C,Sip,Any), "
     "Swi := 3, Hdr := 80, Prt := 2.",
     "static-only body: fires before the first PacketIn"),
    ("d1 PacketIn(@C,Swi,Sip,Hdr) :- PacketIn(@C,Old,Sip,Hdr), Old == 3, "
     "Hdr == 80, Swi := 2.",
     "derives PacketIn: the table is no longer input-only"),
], ids=["static_body", "derived_packet_in"])
def test_rules_that_need_not_wait_for_a_packet_in_build_cold(
        scenarios, multiquery, rule_text, description):
    scenario = scenarios["Q1"]
    candidates = [
        RepairCandidate(edits=(AddRule(parse_program(rule_text).rules[0]),),
                        cost=2.0, description=description),
        scenario_candidates("Q1")[0],
    ]
    warm = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      multiquery=multiquery)
    cold = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      warm_engine=False, multiquery=multiquery)
    assert report_snapshot(warm.evaluate_all(candidates)) == \
        report_snapshot(cold.evaluate_all(candidates))
    # The r7 fix after it is warm again: a cold build leaves no trace.
    assert (warm.warm_hits, warm.warm_fallbacks) == (1, 1)


@both_modes
def test_keyed_cone_data_edit_falls_back_mid_run(scenarios, multiquery):
    """A data edit (Q5's manual ``Learned`` insertion, Table 6d candidate
    I) rides along cold; the mixed report must equal the all-cold report
    row for row."""
    scenario = scenarios["Q5"]
    learned = NDTuple("Learned", ("C", 9, 21, 5))
    candidates = scenario_candidates("Q5") + [
        RepairCandidate(edits=(InsertTuple(learned),), cost=3.0,
                        description="manually insert Learned(C,9,21,5)"),
    ]
    warm = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      multiquery=multiquery)
    cold = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                      warm_engine=False, multiquery=multiquery)
    warm_report = warm.evaluate_all(candidates)
    cold_report = cold.evaluate_all(candidates)
    assert report_snapshot(warm_report) == report_snapshot(cold_report)
    # Both rule edits are warm, the Learned data edit is cold.
    assert warm.warm_hits == 2
    assert warm.warm_fallbacks == 1


def test_warm_with_batched_replay(scenarios, cold_snapshots, candidate_sets):
    scenario = scenarios["Q2"]
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                            replay_batch_size=8)
    report = backtester.evaluate_all(candidate_sets["Q2"])
    assert report_snapshot(report) == cold_snapshots[("Q2", "Backtester")]
    assert backtester.warm_fallbacks == 0


def test_warm_abort_matches_cold_abort():
    """Warm replay under the abort policy aborts at the same points with
    the same partial statistics as the cold replay."""
    scenario = build_scenario("Q1")
    flooder = RepairCandidate(edits=(DeleteRule("r1"),), cost=3.0,
                              description="delete r1 (floods controller)")
    fix = scenario_candidates("Q1")[0]
    policy = EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    kwargs = dict(ks_threshold=scenario.ks_threshold,
                  max_packet_in_growth=1.5, abort_policy=policy)
    for multiquery in MODE_IDS:
        warm_report = Backtester(scenario, multiquery=multiquery,
                                 **kwargs).evaluate_all([flooder, fix])
        cold_report = Backtester(scenario, warm_engine=False,
                                 multiquery=multiquery,
                                 **kwargs).evaluate_all([flooder, fix])
        assert report_snapshot(warm_report) == report_snapshot(cold_report)
        aborted = warm_report.results[0]
        assert not aborted.accepted
        assert any(note.startswith("aborted after")
                   for note in aborted.notes)


def test_batched_abort_composes_with_replay_batch_size():
    """With both a batch size and an abort policy, the burst replayer
    yields at batch boundaries and the policy still kills the flooder
    (previously abort forced per-packet replay)."""
    scenario = build_scenario("Q1")
    flooder = RepairCandidate(edits=(DeleteRule("r1"),), cost=3.0,
                              description="delete r1 (floods controller)")
    fix = scenario_candidates("Q1")[0]
    policy = EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    total = len(scenario.trace())
    batch = 16
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                            max_packet_in_growth=1.5, abort_policy=policy,
                            replay_batch_size=batch)
    report = backtester.evaluate_all([flooder, fix])
    aborted, accepted = report.results
    assert not aborted.accepted and not aborted.effective
    assert any(note.startswith("aborted after") for note in aborted.notes)
    assert aborted.stats.total < total
    # The replay only pauses at burst boundaries.
    assert aborted.stats.total % batch == 0
    assert accepted.accepted
    # The surviving candidate's full replay matches the unbatched verdicts.
    reference = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                           warm_engine=False).evaluate_all([fix])
    assert accepted.accepted == reference.results[0].accepted


def test_warm_state_reuses_one_engine(scenarios):
    scenario = scenarios["Q3"]
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    backtester.evaluate_all(scenario_candidates("Q3"))
    first_engine = backtester._warm_state.engine
    backtester.evaluate_all(scenario_candidates("Q3"))
    assert backtester._warm_state.engine is first_engine
