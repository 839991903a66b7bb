"""Backtesting of repair candidates against historical traffic."""

from .abort import EarlyAbortPolicy
from .metrics import (
    KSResult,
    compare_traffic,
    delivery_delta,
    destination_distribution,
    ks_two_sample,
    per_host_counts,
    total_variation_distance,
)
from .multiquery import modified_rule_names
from .ranking import format_table, rank_results, suggestion_list
from .replay import (BacktestReport, BacktestResult, Backtester,
                     WarmEvaluationState)

__all__ = [
    "EarlyAbortPolicy",
    "KSResult", "compare_traffic", "delivery_delta", "destination_distribution",
    "ks_two_sample", "per_host_counts", "total_variation_distance",
    "modified_rule_names",
    "format_table", "rank_results", "suggestion_list",
    "BacktestReport", "BacktestResult", "Backtester", "WarmEvaluationState",
]
