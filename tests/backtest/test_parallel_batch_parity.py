"""Parity suite: parallel backtesting is an optimisation.

Fleet-dispatched candidate evaluation (``workers > 1``: the gated spawn
scheduler of ``RepairConfig.make_scheduler``) must produce **bit-identical**
reports to the serial path: the same ``TrafficStats`` (every destination
included), KS statistics and verdicts, in the same order.  The data
plane's own parity — one
``run_trace`` against chunks, single packets and the previous walk — is
``tests/sdn/test_walk_differential.py``.
"""

import pytest

import repro.backtest.replay as replay_module
from repro.api import RepairConfig
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.ndlog.ast import Var
from repro.ndlog.parser import parse_program
from repro.repair import (
    ChangeAssignment,
    ChangeConstant,
    ChangeRuleHead,
    CopyRule,
    DeleteSelection,
    RepairCandidate,
)
from repro.scenarios import build_scenario

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]

#: A head no rule reads: re-pointing Q5's ``f2`` at it stops every flow
#: entry, as deleting the rule would.
UNROUTED_HEAD = parse_program(
    "f2 Unrouted(@Swi,SipP,Dip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), "
    "Learned(@C,Swi,Dip,Prt), SipP := *.").rules[0].head


def _rule(source):
    return parse_program(source).rules[0]


def scenario_candidates(name):
    """A small, scenario-specific candidate set: one plausible fix plus one
    overly general repair."""
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


def report_snapshot(report):
    rows = []
    for result in report.results:
        rows.append((result.candidate.description, result.effective,
                     result.accepted, result.ks.statistic,
                     stats_snapshot(result.stats)))
    return (stats_snapshot(report.baseline), tuple(rows),
            report.packet_count)


@pytest.fixture(scope="module")
def scenarios():
    return {name: build_scenario(name) for name in SCENARIOS}


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


@pytest.mark.parametrize("name", SCENARIOS)
def test_workers_match_serial(scenarios, name, open_min_work_gate):
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    serial = Backtester(
        scenario, ks_threshold=scenario.ks_threshold).evaluate_all(candidates)
    parallel = on_two_workers(Backtester(
        scenario, ks_threshold=scenario.ks_threshold), candidates)
    assert report_snapshot(parallel) == report_snapshot(serial)


@pytest.mark.parametrize("name", SCENARIOS)
def test_workers_match_serial_under_an_abort_policy(scenarios, name,
                                                    open_min_work_gate):
    """The policy rides the job wire: each worker cuts its replays at the
    same check points and reaches the same verdicts as the serial path,
    aborting Q1's controller flooder at the same packet."""
    scenario = scenarios[name]
    candidates = scenario_candidates(name)
    if name == "Q1":
        candidates.append(RepairCandidate(
            edits=(ChangeConstant("r1", 0, "right", 1, 5),), cost=3.0,
            description="r1: Swi==1 -> Swi==5 (floods controller)"))
    knobs = dict(max_packet_in_growth=1.5,
                 abort_policy=EarlyAbortPolicy(check_every=8,
                                               min_fraction=0.1))
    serial = Backtester(scenario, **knobs).evaluate_all(candidates)
    parallel = on_two_workers(Backtester(scenario, **knobs), candidates)
    assert report_snapshot(parallel) == report_snapshot(serial)
    if name == "Q1":
        assert parallel.results[-1].notes[-1].startswith("aborted after")
