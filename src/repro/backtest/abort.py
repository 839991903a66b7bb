"""Early-abort policy for candidate replays.

Backtesting cost is dominated by hopeless candidates: a repair that floods
the controller or visibly distorts the traffic distribution keeps replaying
the whole historical trace even though its fate is sealed long before the
end.  An :class:`EarlyAbortPolicy` lets the replay loops kill such a
candidate mid-trace.

Two checks run every ``check_every`` packets (once at least
``min_fraction`` of the trace has replayed); the replay loop cuts the trace
at those check points (:meth:`EarlyAbortPolicy.check_points`), one
``run_trace`` call per piece:

* **controller overload** — the candidate's cumulative ``PacketIn`` count
  already exceeds the *final* baseline count times the growth bound.  The
  counter is monotone, so this abort is *sound*: the full replay would have
  been rejected by the same ``max_packet_in_growth`` test.
* **KS mid-trace** (opt-in via ``ks_slack``) — the KS statistic between the
  baseline's first ``k`` destination samples and the candidate's ``k``
  samples exceeds ``ks_threshold * ks_slack``.  This is a *heuristic*: a
  distribution can in principle recover late in the trace, so the slack
  factor should stay comfortably above 1.

Aborted candidates are reported as rejected (``effective=False,
accepted=False``) with an ``aborted after k/N packets: ...`` note.  With no
policy configured every replay runs to completion and results stay
bit-identical to the serial path — the parity suites run with the policy
off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..wire import Wire
from .metrics import ks_two_sample


@dataclass(frozen=True)
class EarlyAbortPolicy(Wire):
    """When and why to kill a candidate's replay mid-trace; workers get it
    as its :mod:`repro.wire` wire."""

    wire_name = "abort"

    #: Run the checks every this many replayed packets.
    check_every: int = 32
    #: Overload bound; ``None`` falls back to the backtester's
    #: ``max_packet_in_growth`` (and the check is skipped if both are unset).
    max_packet_in_growth: Optional[float] = None
    #: Slack multiplier on the KS threshold for the mid-trace check;
    #: ``None`` disables the (heuristic) KS abort.
    ks_slack: Optional[float] = None
    #: Never abort before this fraction of the trace has replayed.
    min_fraction: float = 0.25

    def __post_init__(self):
        if self.check_every < 1:
            raise ValueError(
                f"abort check_every must be >= 1, not {self.check_every!r}")
        if not 0 <= self.min_fraction <= 1:
            raise ValueError("abort min_fraction must be within [0, 1], "
                             f"not {self.min_fraction!r}")

    def check_points(self, total: int) -> range:
        """The packet counts at which a ``total``-packet replay is checked:
        every multiple of ``check_every`` from ``min_fraction`` of the trace
        on, short of ``total`` — a replay that finished is judged by the
        backtester's verdict, not by the abort checks.  The replay loop cuts
        the trace at these counts, so each check sees the statistics of
        exactly that prefix."""
        first = max(1, math.ceil(self.min_fraction * total))
        first = math.ceil(first / self.check_every) * self.check_every
        return range(first, total, self.check_every)

    def breach(self, stats, done: int, baseline_stats,
               ks_threshold: Optional[float],
               max_packet_in_growth: Optional[float]) -> Optional[str]:
        """Return an abort reason, or ``None`` to keep replaying.

        ``stats`` are the candidate's partial statistics after ``done``
        packets; ``baseline_stats`` the baseline's *complete* statistics.
        """
        growth = self.max_packet_in_growth
        if growth is None:
            growth = max_packet_in_growth
        if growth is not None:
            bound = max(1, baseline_stats.packet_in_count) * growth
            if stats.packet_in_count > bound:
                return (f"controller overload: {stats.packet_in_count} "
                        f"PacketIns > {bound:.0f} allowed")
        if self.ks_slack is not None and ks_threshold is not None:
            ks = ks_two_sample(baseline_stats.destinations[:done],
                               stats.destinations)
            if ks.statistic > ks_threshold * self.ks_slack:
                return (f"KS mid-trace: {ks.statistic:.4f} > "
                        f"{ks_threshold * self.ks_slack:.4f}")
        return None
