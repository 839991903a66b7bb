"""The session event stream: one typed bus for the whole repair pipeline.

The bus is the only observation channel of a repair: every stage of a
:class:`~repro.api.session.RepairSession` publishes typed
:class:`SessionEvent` records on an :class:`EventBus`, and any number of
subscribers consume them — the live CLI renderer, a JSONL log file
(:class:`JsonlEventWriter`), a test capturing the stream, or a dashboard
on the other end of a socket.  Backtest progress has one producer,
:func:`publish_progress`, called by the backtester per finished candidate,
in its serial loop and as the distributed scheduler delivers outcomes
alike, so every path yields one stream.

Events are frozen :mod:`repro.wire` dataclasses with a stable ``kind``:
``SessionEvent.from_json`` rebuilds the subclass a line's ``kind`` names.
No field or kind was ever removed and every field has a default, so a log
any version wrote decodes.

Subscribers must not raise: a broken observer should not kill a repair
run, so :meth:`EventBus.emit` isolates subscriber exceptions — but not
silently: each failure increments the ``bus_sink_errors`` metric on the
bus's :class:`~repro.obs.metrics.MetricsRegistry` and the *first* failure
of each sink emits a ``RuntimeWarning`` (all failures stay on
:attr:`EventBus.subscriber_errors` for tests and debugging).
"""

from __future__ import annotations

import io
import os
import warnings
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, IO, List, Optional, Set, Tuple

from .wire import Wire

if TYPE_CHECKING:
    from .obs.metrics import MetricsRegistry


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
# The bus and stock subscribers
# ---------------------------------------------------------------------------

Subscriber = Callable[[SessionEvent], None]

#: Most events an :class:`EventBus` keeps on its :attr:`~EventBus.history`.
HISTORY_LIMIT = 10_000


class EventBus:
    """Synchronous fan-out of session events to any number of subscribers.

    Emission never raises on behalf of a subscriber; failures are recorded
    on :attr:`subscriber_errors`, counted in the ``bus_sink_errors``
    metric on :attr:`metrics`, and warned about once per sink — so
    observability cannot break the run but broken observers are no longer
    invisible.  The bus also keeps an optional bounded :attr:`history`
    (handy for tests and post-run summaries); once :data:`HISTORY_LIMIT` is
    exceeded the *oldest* events are dropped, so the tail —
    ``session_finished``, the backtest statistics — survives long runs.
    Disable with ``keep_history=False``.
    """

    def __init__(self, keep_history: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self._subscribers: List[Subscriber] = []
        self.keep_history = keep_history
        self.history: "deque[SessionEvent]" = deque(maxlen=HISTORY_LIMIT)
        self.subscriber_errors: List[Tuple[Subscriber, BaseException]] = []
        self._metrics = metrics
        #: Optional hook applied to every event before fan-out (telemetry
        #: uses it to stamp trace/span ids).
        self.stamp: Optional[Callable[[SessionEvent], SessionEvent]] = None
        self._warned_sinks: Set[int] = set()

    @property
    def metrics(self) -> MetricsRegistry:
        """Where ``bus_sink_errors`` is counted; a telemetry-enabled session
        points this at its own registry so sink failures show up in ``repro
        stats``.  Built on first read, that is on the first sink failure."""
        if self._metrics is None:
            from .obs.metrics import MetricsRegistry
            self._metrics = MetricsRegistry()
        return self._metrics

    @metrics.setter
    def metrics(self, registry: MetricsRegistry) -> None:
        self._metrics = registry

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a callable; returns it (usable as a decorator)."""
        self._subscribers.append(subscriber)
        return subscriber

    def emit(self, event: SessionEvent) -> None:
        if self.stamp is not None:
            event = self.stamp(event)
        if self.keep_history:
            self.history.append(event)
        for subscriber in list(self._subscribers):
            try:
                subscriber(event)
            except Exception as exc:   # noqa: BLE001 — observers must not kill runs
                self.subscriber_errors.append((subscriber, exc))
                self._record_sink_error(subscriber, exc)

    def _record_sink_error(self, subscriber: Subscriber,
                           exc: BaseException) -> None:
        name = (getattr(subscriber, "__qualname__", None)
                or type(subscriber).__name__)
        self.metrics.counter("bus_sink_errors", sink=name).inc()
        key = id(subscriber)
        if key not in self._warned_sinks:
            self._warned_sinks.add(key)
            warnings.warn(
                f"event sink {name} raised {exc!r}; suppressing further "
                f"warnings from this sink (failures are still counted in "
                f"the bus_sink_errors metric)", RuntimeWarning,
                stacklevel=3)

    def of_kind(self, kind: str) -> List[SessionEvent]:
        """History filter: all recorded events with the given ``kind``."""
        return [event for event in self.history if event.kind == kind]


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


def publish_progress(bus: EventBus, done: int, total: int, result) -> None:
    """Publish one finished candidate's :class:`BacktestProgress` — then a
    :class:`CandidateAborted` when the abort policy cut its replay short.

    The one progress channel: the backtester calls it for every candidate
    in completion order, serially or as the scheduler delivers outcomes.
    """
    note = next((n for n in result.notes if str(n).startswith("aborted")),
                None)
    description = result.candidate.description if result.candidate else ""
    bus.emit(BacktestProgress(
        done=done, total=total, description=description,
        accepted=result.accepted, effective=result.effective,
        ks_statistic=result.ks.statistic, aborted=note is not None,
        elapsed_seconds=result.elapsed_seconds))
    if note is not None:
        bus.emit(CandidateAborted(description=description, note=str(note)))
