"""Table 1: diagnostic queries and repair-candidate counts for Q1-Q5.

The paper reports, per scenario, how many repair candidates meta provenance
generated and how many remained after backtesting (e.g. "9/2" for Q1).  The
absolute counts depend on search bounds and traffic volumes, but the shape —
roughly ten candidates generated, a small handful surviving, at least one
surviving in every scenario — must hold.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.scenarios import SCENARIO_BUILDERS

from conftest import run_once


PAPER_TABLE1 = {"Q1": (9, 2), "Q2": (12, 3), "Q3": (11, 3),
                "Q4": (13, 3), "Q5": (9, 3)}


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_table1_row(benchmark, scenario_cache, name):
    scenario = scenario_cache(name)

    def diagnose():
        return RepairSession(RepairConfig(max_candidates=14),
                             scenario=scenario).run()

    report = run_once(benchmark, diagnose)
    generated, surviving = report.counts()
    paper_generated, paper_surviving = PAPER_TABLE1[name]
    print(f"\nTable 1 row {name}: {scenario.symptom.description}")
    print(f"  measured {generated}/{surviving}   (paper: "
          f"{paper_generated}/{paper_surviving})")
    # Shape checks: candidates are found, some but not all survive.
    assert generated >= 2
    assert 1 <= surviving <= generated


def test_table1_summary(diagnosis_cache, benchmark):
    def collect():
        return {name: diagnosis_cache(name, max_candidates=14).counts()
                for name in sorted(SCENARIO_BUILDERS)}

    counts = run_once(benchmark, collect)
    print("\nTable 1 (generated / surviving):")
    for name, (generated, surviving) in counts.items():
        paper = PAPER_TABLE1[name]
        print(f"  {name}: measured {generated}/{surviving}   paper {paper[0]}/{paper[1]}")
    assert all(surviving >= 1 for _, surviving in counts.values())
