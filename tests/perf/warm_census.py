"""Warm-switch census: what do the candidates that reach the backtester edit?

Not a test — pytest does not collect this file.  The warm switch
(``WarmEvaluationState.prepare_controller``) is a rewind plus a program swap,
right only for candidates whose changed rules all wait for the first
PacketIn.  This counts, per workload, how many replayed candidates that is:
it runs one serial session each for Q1–Q5 at ``max_candidates`` 14 and 100,
the ledger's ``program_heavy`` (Q1 padded to 250 rules) and ``trace_heavy``
(Q1 over a 2.9k-packet trace), and prints per session the candidates
replayed, the rule-edit ones (and how many of those edit only rules joining
PacketIn), the data-edit ones, warm hits / cold fallbacks, and how often the
engine's deletion path (``Engine.remove`` and the quiet recompute under it)
was entered.  EXPERIMENTS.md "Warm candidate evaluation" carries the table;
run it under two hash seeds to see that it does not depend on one:

    for seed in 0 3; do
        PYTHONHASHSEED=$seed PYTHONPATH=src python tests/perf/warm_census.py
    done
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.ledger.workloads import program_heavy, trace_heavy
from repro.api import RepairConfig, RepairSession
from repro.backtest import WarmEvaluationState
from repro.ndlog import Engine
from repro.scenarios import register_scenario

DELETION = ("remove", "_rederive_fixpoint")


def configs():
    for budget in (14, 100):
        for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            yield f"{name}@{budget}", RepairConfig.for_scenario(
                name, max_candidates=budget)
    register_scenario(program_heavy.SCENARIO, program_heavy.build_q1pad)
    yield "program_heavy", RepairConfig.for_scenario(
        program_heavy.SCENARIO, max_candidates=14,
        params=program_heavy.inputs(0, smoke=False)["params"])
    yield "trace_heavy", RepairConfig.from_wire(
        trace_heavy.config_wire(trace_heavy.inputs(0, smoke=False)))


def census(config):
    counts = dict.fromkeys(("replayed", "rule_edit", "join_packet_in",
                            "data_edit", "hits", "fallbacks", "deletion"), 0)
    prepare = WarmEvaluationState.prepare_controller

    def counted_prepare(state, repaired):
        counts["replayed"] += 1
        if repaired.inserted_tuples or repaired.removed_tuples:
            counts["data_edit"] += 1
        else:
            counts["rule_edit"] += 1
            counts["join_packet_in"] += \
                state._differs_in_dormant_rules_only(repaired.program)
        controller = prepare(state, repaired)
        counts["hits" if controller is not None else "fallbacks"] += 1
        return controller

    def counted(method):
        def entered(*args, **kwargs):
            counts["deletion"] += 1
            return method(*args, **kwargs)
        return entered

    originals = {name: getattr(Engine, name) for name in DELETION}
    WarmEvaluationState.prepare_controller = counted_prepare
    for name, method in originals.items():
        setattr(Engine, name, counted(method))
    try:
        RepairSession(config).run()
    finally:
        WarmEvaluationState.prepare_controller = prepare
        for name, method in originals.items():
            setattr(Engine, name, method)
    return counts


if __name__ == "__main__":
    print(f"{'session':<14} {'replayed':>8} {'rule-edit':>9} "
          f"{'join PacketIn':>13} {'data-edit':>9} {'warm/cold':>9} "
          f"{'deletion entries':>16}")
    for label, config in configs():
        c = census(config)
        print(f"{label:<14} {c['replayed']:>8} {c['rule_edit']:>9} "
              f"{c['join_packet_in']:>13} {c['data_edit']:>9} "
              f"{c['hits']:>5}/{c['fallbacks']:<3} {c['deletion']:>16}")
