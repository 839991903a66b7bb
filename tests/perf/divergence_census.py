"""Divergence census: how much of a candidate's replay repeats the base's?

Not a test — pytest does not collect this file.  ROADMAP, "One sharing
mechanism for backtesting", Step 1: before building a fork-at-first-divergence
backtester, count what it could save.  For every candidate of a session this
replays the trace packet by packet under the base program and under the
candidate (cold builds, the backtester's own simulator settings) and compares,
per packet, ``(destination, dPacketIn, dFlowMod, dPacketOut)`` — where the
packet ended up (a host id, or ``DROPPED``) and the control traffic it
caused:

* ``prefix``  — index of the first packet whose outcome differs from the base
  replay's (the trace length if none does).  ``sum(prefix) / sum(trace)`` is
  the **upper bound** on what any prefix sharing can save: before that packet
  the candidate's replay *is* the base's, after it nothing is promised.
* ``equal``   — share of (packet, candidate) outcomes equal to the base's
  anywhere in the trace: the bound for a per-packet (per-flow) sharing that
  could skip a packet in the middle of a diverged replay.

An earlier version also printed a ``static`` column: the share of (packet,
candidate) decisions the multi-query backtester's static rule-delta check
served from the base replay.  That backtester is gone, and the column with
it; ``prefix`` and ``equal`` bound every sharing scheme it could have been.

Candidates the static vet rejects are never replayed (the vet is a proof that
they equal the base), so each ratio is printed twice: over every candidate
that applies, and over the ones the backtester replays.  Sessions: the two
ledger shapes that replay (``trace_heavy``: Q1 x 2.9k packets x 14;
``candidate_heavy``: Q1 x 234 packets x 100) and default Q2-Q5.
EXPERIMENTS.md "Backtest modes" carries the table; run it under two hash
seeds to see that it does not depend on one:

    for seed in 0 3; do
        PYTHONHASHSEED=$seed PYTHONPATH=src python tests/perf/divergence_census.py
    done
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.ledger.workloads import candidate_heavy, trace_heavy
from repro.api import RepairConfig, RepairSession
from repro.repair import apply_candidate
from repro.sdn.network import NetworkSimulator


def configs():
    yield "trace_heavy", RepairConfig.from_wire(
        trace_heavy.config_wire(trace_heavy.inputs(0, smoke=False)))
    yield "candidate_heavy", RepairConfig.for_scenario(
        "Q1", **candidate_heavy.inputs(0, smoke=False))
    for name in ("Q2", "Q3", "Q4", "Q5"):
        yield name, RepairConfig.for_scenario(name)


def outcomes(scenario, trace, repaired=None):
    """Per trace packet: its fate and the control traffic it caused."""
    if repaired is None:
        controller = scenario.build_controller(program=None)
    else:
        controller = scenario.build_controller(
            program=repaired.program, extra_tuples=repaired.inserted_tuples)
    simulator = NetworkSimulator(
        scenario.build_topology(), controller,
        require_packet_out=scenario.require_packet_out, record_ingress=False)
    stats, rows = simulator.stats, []
    for switch_id, packet in trace:
        before = (stats.packet_in_count, stats.flow_mod_count,
                  stats.packet_out_count)
        simulator.run_trace(((switch_id, packet),))
        rows.append((stats.destinations[-1],
                     stats.packet_in_count - before[0],
                     stats.flow_mod_count - before[1],
                     stats.packet_out_count - before[2]))
    return rows


def census(config):
    session = RepairSession(config)
    backtest = session.run().backtest
    scenario, trace = session.scenario, session.scenario.trace()
    base = outcomes(scenario, trace)
    assert [row[0] for row in base] == backtest.baseline.destinations
    rows = []                           # (prefix, equal outcomes, replayed?)
    for result in backtest.results:
        replayed = not any(note.startswith("vetoed") for note in result.notes)
        try:
            repaired = apply_candidate(scenario.program, result.candidate)
        except Exception:               # vetoed as apply-failed: no replay
            continue
        mine = outcomes(scenario, trace, repaired)
        if replayed:                    # the census replays what the session did
            assert [row[0] for row in mine] == result.stats.destinations
        same = [ours == theirs for ours, theirs in zip(mine, base)]
        prefix = same.index(False) if False in same else len(trace)
        rows.append((prefix, sum(same), replayed))
    return len(trace), rows


def ratios(packets, rows):
    total = packets * len(rows)
    return (sum(prefix for prefix, _equal, _replayed in rows) / total,
            sum(equal for _prefix, equal, _replayed in rows) / total)


if __name__ == "__main__":
    print(f"{'session':<16} {'trace':>5} {'cands':>5} {'at pkt 0':>8} "
          f"{'never':>5} {'prefix':>7} {'equal':>6} | {'replayed':>8} "
          f"{'prefix':>7} {'equal':>6}")
    for label, config in configs():
        packets, rows = census(config)
        replayed = [row for row in rows if row[2]]
        at_zero = sum(prefix == 0 for prefix, _equal, _replayed in rows)
        never = sum(prefix == packets for prefix, _equal, _replayed in rows)
        prefix, equal = ratios(packets, rows)
        replayed_prefix, replayed_equal = ratios(packets, replayed)
        print(f"{label:<16} {packets:>5} {len(rows):>5} {at_zero:>8} "
              f"{never:>5} {prefix:>7.3f} {equal:>6.3f} | {len(replayed):>8} "
              f"{replayed_prefix:>7.3f} {replayed_equal:>6.3f}")
