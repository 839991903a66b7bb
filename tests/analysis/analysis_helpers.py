"""Shared helpers for the static-analysis test suite.

Candidate generation (history index + meta-provenance exploration) is the
expensive part, so it is cached per scenario for the whole test session and
shared between the dependency-graph regression, the constant-propagation
checks and the differential soundness suite.
"""

from repro.meta.explorer import MetaProvenanceExplorer
from repro.scenarios import build_scenario

#: Candidate budget used throughout; large enough that the support-insert
#: proposals (cost 2.0) materialise in every scenario.
MAX_CANDIDATES = 25

_cache = {}


def scenario_and_candidates(name):
    """(scenario, candidates) for ``name``, cached across the session."""
    if name not in _cache:
        scenario = build_scenario(name)
        history = scenario.history_index()
        explorer = MetaProvenanceExplorer(
            scenario.program, history, max_candidates=MAX_CANDIDATES)
        candidates = explorer.explore_missing(scenario.goal()).candidates
        _cache[name] = (scenario, candidates)
    return _cache[name]


def stats_snapshot(stats):
    """Order-stable image of a TrafficStats for bit-identity checks
    (mirrors tests/backtest/test_warm_parity.py)."""
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)
