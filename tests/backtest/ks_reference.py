"""The suites' reference two-sample KS test over sample lists.

No program path calls it: the backtester reads per-host counters
(:func:`repro.backtest.metrics.compare_traffic`).  ``test_ks_identity.py``
holds the two equal bit for bit, and ``test_backtest.py::TestKSMetric``
holds this one against :func:`scipy.stats.ks_2samp`.  Suites in this
directory import it by module name.
"""

from collections import Counter
from typing import Sequence

from repro.backtest.metrics import KSResult, _ks_from_counts


def ks_two_sample(sample_a: Sequence[float], sample_b: Sequence[float]) -> KSResult:
    """Two-sample KS test over numeric samples.

    Destination samples are categorical host identifiers; using their numeric
    order is exactly what the paper's prototype does when it feeds per-host
    traffic counts to the KS test — the statistic measures how much
    probability mass moved between hosts, regardless of which hosts.
    """
    return _ks_from_counts(Counter(sample_a), len(sample_a),
                           Counter(sample_b), len(sample_b))
