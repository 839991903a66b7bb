"""Ranking of backtested repair candidates.

Section 5.3: "After backtesting, the remaining candidates are presented to
the operator in complexity order, i.e., the simplest candidate is shown
first."  The metrics can also be used to break ties: among candidates of the
same complexity, the one with the smallest impact on the overall network is
preferred (Section 4.3).
"""

from __future__ import annotations

from typing import List, Sequence

from .replay import BacktestResult


def rank_results(results: Sequence[BacktestResult],
                 accepted_only: bool = True) -> List[BacktestResult]:
    """Order results by (cost, KS statistic, candidate id)."""
    pool = [r for r in results if r.accepted] if accepted_only else list(results)
    return sorted(pool, key=lambda r: (r.candidate.cost, r.ks.statistic,
                                       r.candidate.candidate_id))


def format_table(results: Sequence[BacktestResult]) -> str:
    """Render results in the style of the paper's Table 2."""
    lines = [f"{'tag':<6} {'repair candidate':<70} {'KS':>9}  verdict"]
    for result in results:
        verdict = "accepted" if result.accepted else "rejected"
        lines.append(f"{result.candidate.tag:<6} "
                     f"{result.candidate.description[:70]:<70} "
                     f"{result.ks.statistic:>9.5f}  {verdict}")
    return "\n".join(lines)
