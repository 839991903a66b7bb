"""Figure 10 (Appendix A): scalability of repair generation with program size.

The paper pads the Q1 controller program with extra operational-zone policies
(100 to 900 lines) and observes a linear increase in turnaround time while
the set of suggested repairs stays stable (the irrelevant rules are pruned
early because their trees quickly become too costly).
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.scenarios.base import NDlogScenario
from repro.scenarios.q1_copy_paste import (
    Q1_MAPPING,
    Q1_PROGRAM,
    build_q1,
    q1_static_tuples,
    q1_topology,
    q1_trace,
)

from conftest import run_once


PROGRAM_SIZES = [50, 150, 300]


def padded_q1_scenario(total_rules: int) -> NDlogScenario:
    """Q1 with extra (irrelevant) per-switch policies appended."""
    base = build_q1()
    extra_rules = []
    index = 0
    while len(base.program.rules) + len(extra_rules) < total_rules:
        switch_id = 100 + index
        extra_rules.append(
            f"pad{index} FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
            f"Swi == {switch_id}, Hdr == 80, Prt := 1.")
        index += 1
    source = Q1_PROGRAM + "\n" + "\n".join(extra_rules)
    scenario = NDlogScenario(
        name=f"Q1x{total_rules}",
        description=f"Q1 padded to {total_rules} rules",
        program_source=source,
        mapping=Q1_MAPPING,
        topology_factory=q1_topology,
        trace_factory=q1_trace,
        symptom=base.symptom,
        static_tuples=q1_static_tuples(),
        target_host=base.target_host,
        ks_threshold=base.ks_threshold)
    return scenario


def test_fig10_turnaround_vs_program_size(benchmark):
    def sweep():
        rows = []
        for size in PROGRAM_SIZES:
            scenario = padded_q1_scenario(size)
            report = RepairSession(RepairConfig(max_candidates=12),
                                   scenario=scenario).run()
            rows.append((size, len(scenario.program.rules), report.timings,
                         report.counts()))
        return rows

    rows = run_once(benchmark, sweep)
    print("\nFigure 10 (turnaround vs program size):")
    print(f"{'rules':>6} {'history':>9} {'solving':>9} {'patches':>9} "
          f"{'replay':>9} {'total':>9} {'repairs':>9}")
    for size, rules, timings, (generated, surviving) in rows:
        print(f"{rules:>6} {timings.history_lookups:>9.3f} "
              f"{timings.constraint_solving:>9.3f} "
              f"{timings.patch_generation:>9.3f} {timings.replay:>9.3f} "
              f"{timings.total:>9.3f} {generated:>4}/{surviving}")
    totals = [timings.total for _, _, timings, _ in rows]
    survivors = [counts[1] for _, _, _, counts in rows]
    # Larger programs take longer, within the paper's bound.
    assert totals[-1] >= totals[0]
    assert all(total < 120.0 for total in totals)
    # The number of usable repairs stays stable despite the padding
    # ("meta provenance focuses on relevant parts of the program").
    assert all(count >= 1 for count in survivors)
