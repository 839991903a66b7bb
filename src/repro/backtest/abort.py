"""Early-abort policy for candidate replays.

Backtesting cost is dominated by hopeless candidates: a repair that floods
the controller keeps replaying the whole historical trace even though its
fate is sealed long before the end.  An :class:`EarlyAbortPolicy` lets the
replay loop kill such a candidate mid-trace.

One check runs every ``check_every`` packets, once at least
``min_fraction`` of the trace has replayed; the replay loop cuts the trace
at those check points (:meth:`EarlyAbortPolicy.check_points`), one
``run_trace`` call per piece.  The check is the verdict's own **controller
overload** test (``Backtester._overload``), applied early: the candidate's
cumulative ``PacketIn`` count already exceeds the *final* baseline count
times the backtester's ``max_packet_in_growth``.  The counter is monotone
and the bound is the one the verdict applies, so an abort is *sound* by
construction: the full replay would have been rejected by the same test.
Without a growth bound the policy checks nothing (the trace is still cut
at its check points).

Aborted candidates are reported as rejected (``effective=False,
accepted=False``) with an ``aborted after k/N packets: ...`` note.  With no
policy configured every replay runs to completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..wire import Wire


@dataclass(frozen=True)
class EarlyAbortPolicy(Wire):
    """When to check a candidate's replay mid-trace; workers get it as its
    :mod:`repro.wire` wire."""

    wire_name = "abort"

    #: Run the check every this many replayed packets.
    check_every: int = 32
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
