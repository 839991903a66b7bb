"""Backtesting of repair candidates against historical traffic."""

from .abort import EarlyAbortPolicy
from .metrics import KSResult, compare_traffic, ks_two_sample
from .multiquery import modified_rule_names
from .ranking import format_table, rank_results
from .replay import (BacktestReport, BacktestResult, Backtester,
                     WarmEvaluationState)

__all__ = [
    "EarlyAbortPolicy",
    "KSResult", "compare_traffic", "ks_two_sample",
    "modified_rule_names",
    "format_table", "rank_results",
    "BacktestReport", "BacktestResult", "Backtester", "WarmEvaluationState",
]
