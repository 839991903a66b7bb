"""Parity suite: parallel and batched backtesting are optimisations.

Fleet-dispatched candidate evaluation (``workers > 1``: the gated spawn
scheduler of ``RepairConfig.make_scheduler``), batched trace replay
(``replay_batch_size``) and the batched PacketIn fixpoint behind it must all
produce **bit-identical** reports to the serial per-packet path: the same
``TrafficStats`` (delivery records included), KS statistics, verdicts and
sharing counters, in the same order.  Q1–Q4 exercise the deep batched path;
Q5 (wildcard flow heads, keyed ``Learned`` table) exercises the analysed
fallback to per-packet replay.
"""

import pytest

import repro.backtest.replay as replay_module
from repro.api import RepairConfig
from repro.backtest import Backtester
from repro.ndlog.ast import Var
from repro.ndlog.parser import parse_program
from repro.repair import (
    AddRule,
    ChangeAssignment,
    ChangeConstant,
    DeleteRule,
    DeleteSelection,
    RepairCandidate,
)
from repro.scenarios import build_scenario
from repro.sdn.network import NetworkSimulator

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def _rule(source):
    return parse_program(source).rules[0]


def scenario_candidates(name):
    """A small, scenario-specific candidate set: one plausible fix plus one
    overly general repair, so both the shared trunk and the per-candidate
    forks carry real traffic."""
    if name == "Q1":
        return [
            RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                            cost=1.1, description="r7: Swi==2 -> Swi==3"),
            RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                            cost=2.0, description="r7: delete Swi==2"),
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
        po_http = _rule("q4poH PacketOut(@Swi,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
                        "Swi == 8, Hdr == 80, Prt := 1.")
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


def stats_snapshot(stats):
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)


def report_snapshot(report):
    rows = []
    for result in report.results:
        rows.append((result.candidate.description, result.effective,
                     result.accepted, result.ks.statistic,
                     stats_snapshot(result.stats)))
    extra = (report.shared_evaluations, report.candidate_evaluations)
    return (stats_snapshot(report.baseline), tuple(rows), extra,
            report.packet_count)


@pytest.fixture(scope="module")
def scenarios():
    return {name: build_scenario(name) for name in SCENARIOS}


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("batch_size", [2, 7, 32])
def test_batched_replay_matches_per_packet(scenarios, name, batch_size):
    scenario = scenarios[name]
    trace = scenario.trace()
    reference = NetworkSimulator(
        scenario.build_topology(), scenario.build_controller(),
        require_packet_out=scenario.require_packet_out, record_ingress=False)
    reference.run_trace(trace)
    batched = NetworkSimulator(
        scenario.build_topology(), scenario.build_controller(),
        require_packet_out=scenario.require_packet_out, record_ingress=False)
    batched.run_trace(trace, batch_size=batch_size)
    assert stats_snapshot(batched.stats) == stats_snapshot(reference.stats)


def test_batch_eligibility_is_as_analysed(scenarios):
    """Q1-Q4 replay through the batched pipeline; Q5's wildcard-installing,
    keyed-join program must be rejected by the static analysis."""
    eligible = {name: scenarios[name].build_controller().batch_replay_adapter()
                is not None for name in SCENARIOS}
    assert eligible == {"Q1": True, "Q2": True, "Q3": True, "Q4": True,
                       "Q5": False}


@pytest.fixture()
def open_min_work_gate(monkeypatch):
    """These smoke-sized replays are exactly what the min-work gate keeps
    serial; open it so ``workers=2`` really goes through the spawn fleet."""
    monkeypatch.setattr(replay_module, "PARALLEL_MIN_SECONDS", 0.0)


def on_two_workers(backtester, candidates):
    """``evaluate_all`` on the scheduler a config with ``workers=2`` and no
    transport gets."""
    with RepairConfig(workers=2).make_scheduler() as scheduler:
        return backtester.evaluate_all(candidates, scheduler=scheduler)


# The ids are the class names from before MultiQueryBacktester was folded
# into Backtester(multiquery=True); keeping them keeps collected test ids.
@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("multiquery", [False, True],
                         ids=["Backtester", "MultiQueryBacktester"])
def test_workers_match_serial(scenarios, name, multiquery,
                              open_min_work_gate):
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    serial = Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        multiquery=multiquery).evaluate_all(candidates)
    parallel = on_two_workers(Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        multiquery=multiquery), candidates)
    assert report_snapshot(parallel) == report_snapshot(serial)


@pytest.mark.parametrize("name", SCENARIOS)
def test_batched_backtest_matches_per_packet(scenarios, name):
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    per_packet = Backtester(
        scenario, ks_threshold=scenario.ks_threshold).evaluate_all(candidates)
    batched = Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        replay_batch_size=16).evaluate_all(candidates)
    assert report_snapshot(batched) == report_snapshot(per_packet)


@pytest.mark.parametrize("name", SCENARIOS)
def test_multiquery_verdicts_match_sequential(scenarios, name):
    """The restructured (hermetic, shardable) multiquery path preserves the
    Figure 9b invariant on every scenario, not just Q1."""
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    sequential = Backtester(
        scenario, ks_threshold=scenario.ks_threshold).evaluate_all(candidates)
    joint = Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        multiquery=True).evaluate_all(candidates)
    assert [r.accepted for r in sequential.results] == \
           [r.accepted for r in joint.results]
    assert [r.effective for r in sequential.results] == \
           [r.effective for r in joint.results]


def test_workers_and_batching_compose(scenarios, open_min_work_gate):
    """workers>1 plus replay_batch_size together still match plain serial."""
    scenario = scenarios["Q1"]
    candidates = scenario_candidates("Q1")
    plain = Backtester(
        scenario, ks_threshold=scenario.ks_threshold).evaluate_all(candidates)
    combined = on_two_workers(Backtester(
        scenario, ks_threshold=scenario.ks_threshold,
        replay_batch_size=8), candidates)
    assert report_snapshot(combined) == report_snapshot(plain)
