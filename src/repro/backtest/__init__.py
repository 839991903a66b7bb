"""Backtesting of repair candidates against historical traffic."""

from .abort import EarlyAbortPolicy
from .metrics import KSResult, compare_traffic
from .ranking import format_table, rank_results
from .replay import BacktestReport, BacktestResult, Backtester

__all__ = [
    "EarlyAbortPolicy",
    "KSResult", "compare_traffic",
    "format_table", "rank_results",
    "BacktestReport", "BacktestResult", "Backtester",
]
