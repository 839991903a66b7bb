"""The session event bus: synchronous fan-out, and events built only when
heard.

A producer asks :attr:`EventBus.listening` before it builds an event: a bus
with no subscriber that keeps no history has nobody to hand one to, so a
quiet ``repro repair`` builds no event and never loads the event classes of
:mod:`repro.events`, which each producer imports at its first emit.  A
subscriber attached any time before a run hears the whole stream.

Subscribers must not raise: a broken observer should not kill a repair
run, so :meth:`EventBus.emit` isolates subscriber exceptions — but not
silently: each failure increments the ``bus_sink_errors`` metric on the
bus's :class:`~repro.obs.metrics.MetricsRegistry` and the *first* failure
of each sink emits a ``RuntimeWarning`` (all failures stay on
:attr:`EventBus.subscriber_errors` for tests and debugging).
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple

if TYPE_CHECKING:
    from .events import SessionEvent
    from .obs.metrics import MetricsRegistry

Subscriber = Callable[["SessionEvent"], None]

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
    def listening(self) -> bool:
        """Would an event emitted now reach anyone (a subscriber, or the
        history)?  Producers build no event when it would not."""
        return self.keep_history or bool(self._subscribers)

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


def publish_progress(bus: EventBus, done: int, total: int, result) -> None:
    """Publish one finished candidate's
    :class:`~repro.events.BacktestProgress` — then a
    :class:`~repro.events.CandidateAborted` when the abort policy cut its
    replay short — if the bus is :attr:`~EventBus.listening`.

    The one progress channel: the backtester calls it for every candidate
    in completion order, serially or as the scheduler delivers outcomes.
    """
    if not bus.listening:
        return
    from .events import BacktestProgress, CandidateAborted

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
