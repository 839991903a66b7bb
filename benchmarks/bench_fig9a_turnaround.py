"""Figure 9a: time to generate repairs for each scenario, with the phase
breakdown (history lookups, constraint solving, patch generation, replay).

The paper reports that the whole process stays under ~25 seconds per
scenario on a single machine; the shape to reproduce is that every scenario
completes quickly and that the replay/history phases dominate for the
scenarios with more control-plane state.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.scenarios import SCENARIO_BUILDERS

from conftest import run_once


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_fig9a_turnaround_breakdown(benchmark, scenario_cache, name):
    scenario = scenario_cache(name)

    def diagnose():
        return RepairSession(RepairConfig(max_candidates=14),
                             scenario=scenario).run()

    report = run_once(benchmark, diagnose)
    timings = report.timings
    print(f"\nFigure 9a, scenario {name}: total {timings.total:.3f}s")
    for phase, seconds in timings.as_dict().items():
        if phase != "total":
            print(f"  {phase:20s} {seconds:.3f}s")
    # The paper's bound is one minute end-to-end; our simulator-scale runs
    # must finish well inside it.
    assert timings.total < 60.0
    assert timings.replay >= 0.0
    assert timings.history_lookups >= 0.0
