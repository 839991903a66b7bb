"""Ablation: the plausibility cost model versus a uniform cost model.

DESIGN.md calls out the cost model (Section 3.5 of the paper) as a key design
choice: common bug-fix patterns (constant tweaks) are explored before unlikely
ones (predicate deletions, new rules).  This ablation compares the default
model against a uniform-cost model on Q1 and checks that (a) the plausibility
model ranks the intuitive fix ahead of structural edits and (b) both models
still find a working repair (the ordering, not the reachability, is what the
cost model buys).
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.meta.costs import CostModel, uniform_cost_model

from conftest import run_once


def _rank_of_constant_fix(report):
    for rank, candidate in enumerate(report.exploration.candidates):
        if any(e.kind == "change_constant" and getattr(e, "rule", "") == "r7"
               and getattr(e, "new_value", None) == 3 for e in candidate.edits):
            return rank
    return None


def _rank_of_first_structural_edit(report):
    for rank, candidate in enumerate(report.exploration.candidates):
        if any(e.kind in ("delete_selection", "delete_predicate", "copy_rule")
               for e in candidate.edits):
            return rank
    return None


@pytest.mark.parametrize("model_name,model_factory", [
    ("plausibility", CostModel),
    ("uniform", uniform_cost_model),
])
def test_ablation_cost_models(benchmark, scenario_cache, model_name, model_factory):
    scenario = scenario_cache("Q1")

    def diagnose():
        return RepairSession(RepairConfig(max_candidates=14),
                             scenario=scenario,
                             cost_model=model_factory()).run()

    report = run_once(benchmark, diagnose)
    constant_rank = _rank_of_constant_fix(report)
    structural_rank = _rank_of_first_structural_edit(report)
    generated, surviving = report.counts()
    print(f"\nAblation ({model_name} cost model): {generated} generated, "
          f"{surviving} survive; constant-fix rank {constant_rank}, "
          f"first structural-edit rank {structural_rank}")
    assert surviving >= 1
    if model_name == "plausibility":
        # The intuitive fix must be found and must rank ahead of the first
        # structural (deletion/copy) candidate.
        assert constant_rank is not None
        if structural_rank is not None:
            assert constant_rank < structural_rank
