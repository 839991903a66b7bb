"""``candidate_heavy`` — many candidates, each replayed over a short trace."""

from __future__ import annotations

from typing import Dict

from .base import SessionRunner

NAME = "candidate_heavy"
WHY = ("95 short replays instead of 14 long ones: per-candidate set-up "
       "(apply, vet, warm switch or engine build, plan cache) is a large "
       "share, so wins there show here and not in trace_heavy")
GOLDEN = "candidate_heavy"
MAX_CANDIDATES = 100


def inputs(seed: int, smoke: bool) -> Dict[str, object]:
    # Nothing here depends on the seed or on smoke: the candidate list is
    # a pure function of (scenario, budget), and that is what is pinned.
    return {"max_candidates": MAX_CANDIDATES}


def runner(knobs: Dict[str, object]) -> SessionRunner:
    from repro.api import RepairConfig
    return SessionRunner(NAME, RepairConfig.for_scenario(
        "Q1", max_candidates=knobs["max_candidates"]).to_wire())
