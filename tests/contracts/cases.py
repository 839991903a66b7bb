"""What a cell of the contract table (``test_contracts.py``) computes.

A cell is (row, scenario); its digest is the sha256 of two runs under the
row's config:

* the session: ``RepairSession(config).run().to_wire()`` minus ``timings``,
  plus the ``TrafficStats`` wire of the baseline and of every result;
* the hand-built candidates of :func:`fresh_candidates` through
  ``evaluate_all`` on the config's backtester and scheduler: each result's
  tag, description, cost, verdict, KS result, notes and stats, plus the
  baseline, the packet count and the veto and quarantine counts.

Tags come from a process-global counter, so both runs restart it first.
As a script it prints the reference digests as JSON on stdout and an
``old -> new`` line per (reference, scenario) on stderr.
"""

import hashlib
import json
import pathlib
import sys

from repro.api import RepairConfig, RepairSession
from repro.backtest import EarlyAbortPolicy
from repro.ndlog.ast import Var
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple
from repro.repair import (ChangeAssignment, ChangeConstant, ChangeRuleHead,
                          CopyRule, DeleteSelection, InsertTuple,
                          RepairCandidate, reset_candidate_ids)
from repro.wire import encode

SCENARIOS = ("Q1", "Q2", "Q3", "Q4", "Q5")
DIGESTS_PATH = pathlib.Path(__file__).with_name("digests.json")

#: The knobs of each reference configuration.  ``abort`` cuts every replay
#: at the policy's check points and stops a flooder early, so its reports
#: differ from ``plain``'s where a candidate aborts.
REFERENCES = {
    "plain": {},
    "abort": {"max_packet_in_growth": 1.5,
              "abort": EarlyAbortPolicy(check_every=8, min_fraction=0.1)},
}

#: The value each of ``repro.api.config.LEDGER_ONLY_KNOBS`` had by default
#: while its mechanism existed; a row of the table flips it.
LEDGER_DEFAULTS = {"warm_engine": True, "replay_batch_size": None,
                   "multiquery": False}

#: A head no rule reads: re-pointing Q5's ``f2`` at it stops every flow
#: entry, as deleting the rule would.
UNROUTED_HEAD = parse_program(
    "f2 Unrouted(@Swi,SipP,Dip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), "
    "Learned(@C,Swi,Dip,Prt), SipP := *.").rules[0].head


def _rule(source):
    return parse_program(source).rules[0]


def flooding_candidate():
    """Q1's ``r1`` matching switch 5 instead of 1: every packet at switch 1
    goes to the controller, which the verdict rejects under a PacketIn
    growth bound of 1.5 and an abort policy stops early."""
    return RepairCandidate(
        edits=(ChangeConstant("r1", 0, "right", 1, 5),), cost=3.0,
        description="r1: Swi==1 -> Swi==5 (floods controller)")


def scenario_candidates(name):
    """One plausible fix plus one overly general repair per scenario."""
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


def q1_data_edits():
    """Q1's manual insertions: a flow entry, and a second load-balancer
    entry for a client that has one (two equal-priority flow entries)."""
    return [
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


def fresh_candidates(name):
    """The hand-built candidates of a cell, tags numbered from ``v1``: the
    scenario's pair; Q1 adds its data edits and its flooder."""
    reset_candidate_ids()
    candidates = scenario_candidates(name)
    if name == "Q1":
        candidates += [*q1_data_edits(), flooding_candidate()]
    return candidates


def stats_snapshot(stats):
    """Order-stable image of a ``TrafficStats``, for suites that compare
    two runs of their own."""
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)


def report_snapshot(report):
    """Order-stable image of a ``BacktestReport``: the baseline, one row per
    result (tag and notes included) and the packet count."""
    rows = tuple((result.candidate.description, result.candidate.tag,
                  result.effective, result.accepted, result.ks,
                  result.notes, stats_snapshot(result.stats))
                 for result in report.results)
    return (stats_snapshot(report.baseline), rows, report.packet_count)


def session_wire(config):
    """Run (a) of a cell: the session's report wire minus ``timings``, with
    the baseline's and every result's ``TrafficStats`` wire."""
    reset_candidate_ids()
    session = RepairSession(config)
    report = session.run()
    wire = report.to_wire()
    del wire["timings"]
    wire["baseline_stats"] = encode(report.backtest.baseline)
    for row, result in zip(wire["results"], report.backtest.results):
        row["stats"] = encode(result.stats)
    return wire, session


def backtest_wire(report):
    """The JSON image of a hand-built ``BacktestReport`` (no timings)."""
    return {
        "baseline": encode(report.baseline),
        "packet_count": report.packet_count,
        "vetoed_count": report.vetoed_count,
        "quarantined_count": report.quarantined_count,
        "results": [{"tag": result.candidate.tag,
                     "description": result.candidate.description,
                     "cost": result.candidate.cost,
                     "effective": result.effective,
                     "accepted": result.accepted,
                     "ks": encode(result.ks),
                     "notes": list(result.notes),
                     "stats": encode(result.stats)}
                    for result in report.results],
    }


def hand_built_run(config, scenario, candidates=None, backtester=None):
    """Run (b) of a cell: ``evaluate_all`` of the hand-built candidates on
    the config's backtester (or the one given) and scheduler.  Returns the
    report and the scheduler's fault stats (``None`` when serial)."""
    if candidates is None:
        candidates = fresh_candidates(scenario.name)
    if backtester is None:
        backtester = config.make_backtester(scenario)
        backtester.telemetry = config.make_telemetry()
    scheduler = config.make_scheduler()
    if scheduler is None:
        return backtester.evaluate_all(candidates), None
    with scheduler:
        report = backtester.evaluate_all(candidates, scheduler=scheduler)
        return report, scheduler.transport.last_fault_stats


def digest(session, hand_built):
    """The sha256 of a cell's two wires."""
    text = json.dumps({"session": session, "hand_built": hand_built},
                      sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digests():
    """``{reference: {scenario: digest}}``, run serially in this process."""
    out = {}
    for reference, knobs in REFERENCES.items():
        out[reference] = {}
        for name in SCENARIOS:
            config = RepairConfig.for_scenario(name, **knobs)
            session, _ = session_wire(config)
            report, _ = hand_built_run(config, config.build_scenario())
            out[reference][name] = digest(session, backtest_wire(report))
    return out


def main():
    old = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    new = reference_digests()
    for reference, cells in new.items():
        for name, value in cells.items():
            before = old.get(reference, {}).get(name)
            verdict = "same" if before == value else "MOVED"
            print(f"{reference} {name}: {before} -> {value} ({verdict})",
                  file=sys.stderr)
    print(json.dumps(new, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
