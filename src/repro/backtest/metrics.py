"""Backtesting metrics.

Section 4.3: candidate repairs are evaluated by replaying historical traffic
and comparing "key statistics, such as the number of packets delivered to
each host".  The acceptance test is a two-sample Kolmogorov-Smirnov test on
the traffic distribution at end hosts: a repair is rejected if the KS
statistic between its replay and the baseline exceeds the scenario's
threshold (``ks_threshold``, pinned per scenario by
``tests/scenarios/paper_tables.json``).

The statistic is computed directly (and cross-checked against
:func:`scipy.stats.ks_2samp` in the test suite), so the backtester needs no
SciPy at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..sdn.network import DROPPED, TrafficStats


@dataclass(frozen=True)
class KSResult:
    """Result of a two-sample Kolmogorov-Smirnov test."""

    statistic: float
    sample_sizes: Tuple[int, int]


def _ks_from_counts(counts_a: Mapping[float, int], n_a: int,
                    counts_b: Mapping[float, int], n_b: int) -> KSResult:
    """The test over two multisets given as value -> multiplicity.

    Destination samples are categorical host identifiers; using their
    numeric order is exactly what the paper's prototype does when it feeds
    per-host traffic counts to the KS test — the statistic measures how
    much probability mass moved between hosts, regardless of which hosts.
    """
    if n_a == 0 or n_b == 0:
        return KSResult(statistic=1.0 if (n_a or n_b) else 0.0,
                        sample_sizes=(n_a, n_b))
    values = sorted(set(counts_a) | set(counts_b))
    cdf_a = 0.0
    cdf_b = 0.0
    statistic = 0.0
    for value in values:
        cdf_a += counts_a.get(value, 0) / n_a
        cdf_b += counts_b.get(value, 0) / n_b
        statistic = max(statistic, abs(cdf_a - cdf_b))
    return KSResult(statistic=statistic, sample_sizes=(n_a, n_b))


def _destination_counts(stats: TrafficStats) -> Dict[int, int]:
    """``Counter(stats.destinations)`` without walking the list: the
    simulator already keeps deliveries per host and the number dropped."""
    counts = dict(stats.delivered_per_host)
    if stats.dropped:
        counts[DROPPED] = stats.dropped
    return counts


def compare_traffic(before: TrafficStats, after: TrafficStats) -> KSResult:
    """KS test between two runs' destination distributions.

    Computed from the per-host counters of the two runs — the same sorted
    values and the same float additions as a KS test over their
    ``destinations`` lists (the suites' reference, ``ks_two_sample``), so
    the result is equal bit for bit.
    """
    return _ks_from_counts(_destination_counts(before), before.total,
                           _destination_counts(after), after.total)
