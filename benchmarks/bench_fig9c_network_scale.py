"""Figure 9c: scalability of repair generation with network size (Q1).

The paper grows the Stanford-campus topology from 19 to 169 switches (and up
to 549 hosts) and finds that the turnaround time grows roughly linearly,
dominated by history lookups and replay (the controller state grows with the
network).  The reproduction scales the Q1 environment by adding edge hosts
and traffic — the component that actually grows the controller state and the
historical log — and checks the same shape: turnaround grows with network
size, stays within the paper's one-minute bound, and the growth is driven by
the history/replay phases rather than by constraint solving.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.scenarios.q1_copy_paste import build_q1

from conftest import run_once


#: (s1 clients, s4 clients, trace repetitions) per network-size step.
SCALE_STEPS = [
    ("small", 12, 4, 2),
    ("medium", 30, 10, 3),
    ("large", 60, 20, 4),
]


def test_fig9c_turnaround_vs_network_size(benchmark):
    def sweep():
        rows = []
        for label, s1_clients, s4_clients, repetitions in SCALE_STEPS:
            scenario = build_q1(s1_clients=s1_clients, s4_clients=s4_clients,
                                repetitions=repetitions)
            topology = scenario.build_topology()
            report = RepairSession(RepairConfig(max_candidates=12),
                                   scenario=scenario).run()
            rows.append({
                "label": label,
                "switches": topology.switch_count(),
                "hosts": topology.host_count(),
                "packets": len(scenario.trace()),
                "timings": report.timings,
                "survivors": report.counts()[1],
            })
        return rows

    rows = run_once(benchmark, sweep)
    print("\nFigure 9c (turnaround vs network size):")
    print(f"{'size':>8} {'switches':>9} {'hosts':>6} {'packets':>8} "
          f"{'history':>8} {'solving':>8} {'patches':>8} {'replay':>8} {'total':>8}")
    for row in rows:
        t = row["timings"]
        print(f"{row['label']:>8} {row['switches']:>9} {row['hosts']:>6} "
              f"{row['packets']:>8} {t.history_lookups:>8.3f} "
              f"{t.constraint_solving:>8.3f} {t.patch_generation:>8.3f} "
              f"{t.replay:>8.3f} {t.total:>8.3f}")
    totals = [row["timings"].total for row in rows]
    # Turnaround grows with network size but stays within the paper's bound.
    assert totals[-1] >= totals[0]
    assert all(total < 60.0 for total in totals)
    # Repairs are still found at every scale.
    assert all(row["survivors"] >= 1 for row in rows)
    # The growth comes from history lookups and replay, not constraint solving.
    largest = rows[-1]["timings"]
    assert largest.constraint_solving <= largest.history_lookups + largest.replay
