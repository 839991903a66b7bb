"""The session event stream: the typed events of the whole repair pipeline.

The bus (:class:`~repro.bus.EventBus`, re-exported here) is the only
observation channel of a repair: every stage of a
:class:`~repro.api.session.RepairSession` publishes typed
:class:`SessionEvent` records on it, and any number of subscribers consume
them — the live CLI renderer, a JSONL log file (:class:`JsonlEventWriter`),
a test capturing the stream, or a dashboard on the other end of a socket.
Backtest progress has one producer, :func:`~repro.bus.publish_progress`,
called by the backtester per finished candidate, in its serial loop and as
the distributed scheduler delivers outcomes alike, so every path yields one
stream.

A producer builds an event only when the bus is
:attr:`~repro.bus.EventBus.listening` (it has a subscriber or keeps a
history), and imports this module at that first event: a quiet ``repro
repair``, whose bus keeps no history, never loads it.

Events are frozen :mod:`repro.wire` dataclasses with a stable ``kind``:
``SessionEvent.from_json`` rebuilds the subclass a line's ``kind`` names.
No field or kind was ever removed and every field has a default, so a log
any version wrote decodes.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Tuple

# Re-exported: the bus and its progress producer live in repro.bus.
from .bus import (HISTORY_LIMIT, EventBus, Subscriber,  # noqa: F401
                  publish_progress)
from .wire import Wire


@dataclass(frozen=True)
class SessionEvent(Wire):
    """Base class for everything published on the bus."""

    wire_name = "event"
    #: Stable machine-readable discriminator, overridden per subclass.
    kind = "event"

    #: Trace correlation (empty when telemetry is off).  Stamped by the
    #: bus at emit time — see :attr:`EventBus.stamp` — so every event in a
    #: telemetry-enabled run carries the session's trace id and the span
    #: that was open when it fired.
    trace_id: str = ""
    span_id: str = ""


#: An event of whichever kind its wire names (``SessionEvent.from_wire``).
event_from_wire = SessionEvent.from_wire


# ---------------------------------------------------------------------------
# The event hierarchy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionStarted(SessionEvent):
    """A repair session began running its stage pipeline."""

    kind = "session_started"
    scenario: str = ""
    symptom: str = ""
    stages: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SessionFinished(SessionEvent):
    """The pipeline completed; headline numbers of the final report."""

    kind = "session_finished"
    scenario: str = ""
    generated: int = 0
    surviving: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class StageStarted(SessionEvent):
    kind = "stage_started"
    stage: str = ""


@dataclass(frozen=True)
class StageFinished(SessionEvent):
    kind = "stage_finished"
    stage: str = ""
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class CandidateFound(SessionEvent):
    """The explorer extracted one repair candidate (in cost order)."""

    kind = "candidate_found"
    index: int = 0
    total: int = 0
    tag: str = ""
    description: str = ""
    cost: float = 0.0


@dataclass(frozen=True)
class BacktestProgress(SessionEvent):
    """One candidate's backtest completed (published in completion order)."""

    kind = "backtest_progress"
    done: int = 0
    total: int = 0
    description: str = ""
    accepted: bool = False
    effective: bool = False
    ks_statistic: float = 0.0
    aborted: bool = False
    #: Wall-clock seconds spent evaluating this candidate (0.0 when the
    #: producing path did not measure it).
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class CandidateAborted(SessionEvent):
    """The early-abort policy killed a candidate's replay mid-trace."""

    kind = "candidate_aborted"
    description: str = ""
    note: str = ""


@dataclass(frozen=True)
class CandidateVetoed(SessionEvent):
    """Static analysis rejected a candidate before any replay ran."""

    kind = "candidate_vetoed"
    description: str = ""
    reason: str = ""
    note: str = ""


@dataclass(frozen=True)
class CandidateQuarantined(SessionEvent):
    """The fabric gave up on a candidate after exhausting its retries.

    The candidate still appears in the report — as a deterministic,
    flatly rejected result carrying a ``quarantined(<reason>)`` note —
    so one poisonous candidate cannot kill a thousand-candidate run.
    ``reason`` is the machine-readable failure class
    (``worker-exception`` / ``worker-crash`` / ``deadline`` /
    ``frame-error``).
    """

    kind = "candidate_quarantined"
    index: int = 0
    description: str = ""
    reason: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class FabricFaultStats(SessionEvent):
    """Fault-recovery counters for one fabric job (emitted only when any
    recovery action actually fired, so fault-free runs keep an unchanged
    event stream).

    ``retry_reasons`` is a compact ``reason=count`` listing (sorted,
    comma-separated) rather than a nested mapping so the event stays a
    flat wire-friendly record.
    """

    kind = "fabric_fault_stats"
    worker_restarts: int = 0
    job_retries: int = 0
    retry_reasons: str = ""
    quarantined: int = 0
    frame_errors: int = 0
    degraded: bool = False


@dataclass(frozen=True)
class WarmEngineStats(SessionEvent):
    """Static-analysis and plan-cache counters after a backtest stage:
    candidates vetoed before replay and the rule-plan cache traffic.

    ``hits``, ``fallbacks``, ``probe_hits`` and ``probe_misses`` counted
    warm candidate switches and the warm controller's inert probe; every
    candidate now builds cold, so they are always 0 and stay fields only so
    that old event logs decode."""

    kind = "warm_engine_stats"
    hits: int = 0
    fallbacks: int = 0
    vetoed: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    #: Shared rule-plan cache traffic during the stage (process-wide
    #: :data:`repro.ndlog.plan.PLAN_CACHE` delta): a miss is plan code
    #: compiled for a rule shape not seen before, a hit a lookup that
    #: compiled nothing; near-identical candidate programs should miss
    #: only for an edit that changes a rule's structure.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0


# ---------------------------------------------------------------------------
# Stock subscribers
# ---------------------------------------------------------------------------


class JsonlEventWriter:
    """Subscriber that appends one JSON line per event to a stream.

    On ``session_finished`` the writer flushes *and* fsyncs the stream
    (``sync_on_finish``), so a reader tailing the log of a live run —
    ``repro events summarize`` against another process's ``--events``
    file — never sees a truncated final line: by the time the session
    reports itself finished, its whole stream is durably on disk.
    """

    def __init__(self, stream: IO[str], flush: bool = True,
                 sync_on_finish: bool = True):
        self.stream = stream
        self.flush = flush
        self.sync_on_finish = sync_on_finish

    def __call__(self, event: SessionEvent) -> None:
        self.stream.write(event.to_json() + "\n")
        if self.flush:
            self.stream.flush()
        if self.sync_on_finish and event.kind == "session_finished":
            self.sync()

    def sync(self) -> None:
        """Flush, then fsync when the stream is a real file (best effort:
        pipes, sockets and StringIO buffers flush only)."""
        self.stream.flush()
        try:
            os.fsync(self.stream.fileno())
        except (AttributeError, OSError, ValueError, io.UnsupportedOperation):
            pass
