"""Backtesting metrics.

Section 4.3: candidate repairs are evaluated by replaying historical traffic
and comparing "key statistics, such as the number of packets delivered to
each host".  The acceptance test is a two-sample Kolmogorov-Smirnov test on
the traffic distribution at end hosts, with significance level 0.05: a
repair is rejected if it significantly distorts the original distribution.

The KS statistic and asymptotic p-value are implemented directly (and
cross-checked against :func:`scipy.stats.ks_2samp` in the test suite) so the
backtester has no hard dependency on SciPy internals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from ..sdn.network import DROPPED, TrafficStats


@dataclass(frozen=True)
class KSResult:
    """Result of a two-sample Kolmogorov-Smirnov test."""

    statistic: float
    p_value: float
    sample_sizes: Tuple[int, int]

    def significant(self, alpha: float = 0.05) -> bool:
        """True if the two samples differ significantly at level ``alpha``."""
        return self.p_value < alpha


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float]) -> KSResult:
    """Two-sample KS test over numeric samples.

    Destination samples are categorical host identifiers; using their numeric
    order is exactly what the paper's prototype does when it feeds per-host
    traffic counts to the KS test — the statistic measures how much
    probability mass moved between hosts, regardless of which hosts.
    """
    return _ks_from_counts(Counter(sample_a), len(sample_a),
                           Counter(sample_b), len(sample_b))


def _ks_from_counts(counts_a: Mapping[float, int], n_a: int,
                    counts_b: Mapping[float, int], n_b: int) -> KSResult:
    """The test over two multisets given as value -> multiplicity."""
    if n_a == 0 or n_b == 0:
        return KSResult(statistic=1.0 if (n_a or n_b) else 0.0, p_value=0.0,
                        sample_sizes=(n_a, n_b))
    values = sorted(set(counts_a) | set(counts_b))
    cdf_a = 0.0
    cdf_b = 0.0
    statistic = 0.0
    for value in values:
        cdf_a += counts_a.get(value, 0) / n_a
        cdf_b += counts_b.get(value, 0) / n_b
        statistic = max(statistic, abs(cdf_a - cdf_b))
    p_value = _ks_p_value(statistic, n_a, n_b)
    return KSResult(statistic=statistic, p_value=p_value, sample_sizes=(n_a, n_b))


def _ks_p_value(statistic: float, n_a: int, n_b: int) -> float:
    """Asymptotic (Kolmogorov) p-value for the two-sample statistic."""
    if statistic <= 0:
        return 1.0
    effective_n = n_a * n_b / (n_a + n_b)
    lam = (math.sqrt(effective_n) + 0.12 + 0.11 / math.sqrt(effective_n)) * statistic
    total = 0.0
    for j in range(1, 101):
        term = 2 * (-1) ** (j - 1) * math.exp(-2 * (j * lam) ** 2)
        total += term
        if abs(term) < 1e-12:
            break
    return max(0.0, min(1.0, total))


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
    values and the same float additions as :func:`ks_two_sample` over their
    ``destinations``, so the result is equal bit for bit.
    """
    return _ks_from_counts(_destination_counts(before), before.total,
                           _destination_counts(after), after.total)
