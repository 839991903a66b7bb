"""Backtesting of repair candidates against historical traffic."""

from .abort import EarlyAbortPolicy
from .metrics import KSResult, compare_traffic, ks_two_sample
from .ranking import format_table, rank_results
from .replay import BacktestReport, BacktestResult, Backtester

__all__ = [
    "EarlyAbortPolicy",
    "KSResult", "compare_traffic", "ks_two_sample",
    "format_table", "rank_results",
    "BacktestReport", "BacktestResult", "Backtester",
]
