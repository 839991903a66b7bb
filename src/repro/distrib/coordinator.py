"""The work-queue coordinator: one candidate queue, many workers.

Dispatch is dynamic and pull-based: per-candidate work items sit in one
queue, workers take the next item when they finish the last, and results
stream back as they complete.  The coordinator

* reorders streamed results into **input order** (the order callers and
  reports rely on),
* decodes each ``ShardOutcome`` wire, from any transport, and re-attaches
  the caller's candidate object (the meta provenance tree stays here),
* invokes an optional **progress callback** per completed candidate,
* forwards an optional :class:`~repro.backtest.abort.EarlyAbortPolicy` so
  workers can kill a hopeless candidate's replay mid-trace, and
* converts transport-level :class:`~repro.distrib.faults.QuarantinedItem`
  deliveries (items that exhausted their retry budget) into deterministic
  rejected results — so ``len(results) == len(candidates)`` holds even
  when a candidate is poisonous — emitting ``candidate_quarantined``
  events and folding the transport's recovery counters into telemetry
  (``fabric_worker_restarts``, ``fabric_job_retries{reason=…}``,
  ``fabric_quarantined``, ``fabric_frame_errors``, retry spans) after
  each job.

:class:`Scheduler` is the user-facing bundle (transport choice + worker
count + callbacks) that plugs into ``Backtester.evaluate_all(...,
scheduler=...)``::

    from repro.distrib import Scheduler
    with Scheduler(transport="spawn", workers=4) as scheduler:
        report = Backtester(scenario).evaluate_all(candidates,
                                                   scheduler=scheduler)

A session does not start a fleet of its own.  :meth:`Scheduler.borrow`
(behind ``Scheduler.from_config`` and ``Backtester(workers=N)``) takes the
process's idle fleet when it has the same shape — transport name, worker
count, transport options — and :meth:`Scheduler.close` parks it again, so
the second session in a process finds its workers up, with the scenario
rebuilt and the baseline replayed in their runtime caches.  A process keeps
at most one idle fleet, whatever its shape: parking a fleet closes the one
parked before it (sessions that run at once each get their own fleet).
Only a fleet whose transport says it is :meth:`~BaseTransport.reusable` is
parked; any other is closed on the spot.  The idle fleet is closed at
interpreter exit, or earlier by :func:`close_parked_fleets`.  A
``Scheduler(...)`` built directly owns its transport as before.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..backtest.abort import EarlyAbortPolicy
from ..backtest.replay import Backtester, BacktestResult, ShardOutcome
from ..events import (CandidateQuarantined, EventBus, FabricFaultStats,
                      progress_to_events)
from ..repair.candidates import RepairCandidate
from ..wire import decode
from .faults import FaultPlan, FaultStats, FaultToleranceConfig, QuarantinedItem
from .jobs import DistribError, build_job_wire
from .transport import BaseTransport, make_transport

#: ``progress(done, total, result)`` — called in completion order, with the
#: candidate already re-attached to the result.  The callback form predates
#: the unified event stream; new code should pass ``events=`` (an
#: :class:`repro.events.EventBus`) and consume typed
#: :class:`~repro.events.BacktestProgress` events instead.
ProgressCallback = Callable[[int, int, BacktestResult], None]

#: The idle fleet: at most one entry, the canonical JSON of ``[transport
#: name, workers, transport_options]`` -> a running transport nobody holds.
_PARKED: Dict[str, BaseTransport] = {}
_PARKED_LOCK = threading.Lock()
# The lock is held across a fork, so no half-done take or park is copied;
# a forked child owns none of its parent's workers and starts empty.
os.register_at_fork(before=_PARKED_LOCK.acquire,
                    after_in_parent=_PARKED_LOCK.release,
                    after_in_child=_PARKED_LOCK.release)
os.register_at_fork(after_in_child=_PARKED.clear)


def close_parked_fleets() -> None:
    """Shut down the idle fleet, if any.

    Runs at interpreter exit.  A long-lived process that is done with
    spawn sessions calls it to release the workers (two processes of
    ≈ 25 MB each for a 2-worker fleet) sooner.
    """
    with _PARKED_LOCK:
        idle = list(_PARKED.values())
        _PARKED.clear()
    for fleet in idle:
        fleet.close()


atexit.register(close_parked_fleets)


def _fleet_key(transport: str, workers: int, options: Dict) -> Optional[str]:
    """The table key of a fleet shape; ``None`` when an option is not
    JSON (such a fleet is never parked)."""
    try:
        return json.dumps([transport, workers, options], sort_keys=True)
    except (TypeError, ValueError):
        return None


class Coordinator:
    """Runs one backtest job through a transport, preserving input order."""

    def __init__(self, transport: BaseTransport,
                 progress: Optional[ProgressCallback] = None,
                 events: Optional[EventBus] = None,
                 telemetry=None):
        self.transport = transport
        self.progress = progress
        self.events = events
        #: Coordinator-side :class:`repro.obs.Telemetry`; when ``None``
        #: the backtester's own bundle (if any) is used, so a scheduler
        #: built without explicit telemetry still propagates context.
        self.telemetry = telemetry
        self._event_progress = (progress_to_events(events)
                                if events is not None else None)

    def run(self, backtester: Backtester,
            candidates: Sequence[RepairCandidate],
            abort_policy: Optional[EarlyAbortPolicy] = None,
            progress: Optional[ProgressCallback] = None
            ) -> List[ShardOutcome]:
        candidates = list(candidates)
        if not candidates:
            return []
        telemetry = self.telemetry or getattr(backtester, "telemetry", None)
        job_span = None
        if telemetry is not None:
            # Open the job span *before* building the wire: the wire's
            # span context is then this span, and every worker-side item
            # span stitches under it.
            job_span = telemetry.span("fabric.job",
                                      transport=self.transport.name,
                                      candidates=len(candidates))
        # Per-item soft deadline: the timed baseline replay (set by
        # ``evaluate_all`` before the scheduler runs) estimates one
        # candidate's cost; the transport's policy scales and floors it.
        deadline = self.transport.fault_policy.resolve_deadline(
            getattr(backtester, "_baseline_seconds", None))
        job_wire = build_job_wire(backtester, candidates,
                                  abort_policy=abort_policy,
                                  telemetry=telemetry,
                                  deadline=deadline)
        outcomes: List[Optional[ShardOutcome]] = [None] * len(candidates)
        callbacks = [cb for cb in (self.progress, progress,
                                   self._event_progress) if cb is not None]
        done = 0
        lock = threading.Lock()   # a transport may deliver from its threads

        def on_result(index: int, outcome) -> None:
            nonlocal done
            with lock:
                if isinstance(outcome, QuarantinedItem):
                    outcome = self._quarantine(backtester, candidates[index],
                                               outcome, telemetry)
                else:
                    outcome = decode(ShardOutcome, outcome)
                    outcome.result.candidate = candidates[index]
                outcomes[index] = outcome
                done += 1
                if telemetry is not None:
                    telemetry.metrics.counter("fabric_items").inc()
                    telemetry.metrics.gauge("fabric_queue_depth").set(
                        len(candidates) - done)
                for callback in callbacks:
                    callback(done, len(candidates), outcome.result)

        try:
            self.transport.run_job(job_wire, on_result)
        finally:
            self._record_fault_stats(telemetry)
            if job_span is not None:
                job_span.finish()
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise DistribError(f"transport {self.transport.name!r} returned "
                               f"no result for candidates {missing}")
        return outcomes

    def _quarantine(self, backtester: Backtester,
                    candidate: RepairCandidate, item: QuarantinedItem,
                    telemetry) -> ShardOutcome:
        """A deterministic error-shaped outcome for a given-up item.

        Like a vetoed candidate that cannot be evaluated: the backtester's
        flat-rejection verdict over the baseline statistics (hence a
        self-comparison KS) with a machine-readable ``quarantined(<reason>)
        after N attempts`` note — identical on every run of the same fault
        plan, which is what lets chaos tests assert bit-identical reports
        modulo quarantine rows.
        """
        result = backtester.verdict(
            candidate, backtester.baseline(), judge=False,
            note=f"quarantined({item.reason}) after {item.attempts} attempts")
        if self.events is not None:
            self.events.emit(CandidateQuarantined(
                index=item.index, description=candidate.description or "",
                reason=item.reason, attempts=item.attempts))
        if telemetry is not None:
            telemetry.metrics.counter("fabric_quarantined",
                                      reason=item.reason).inc()
        return ShardOutcome(result=result)

    def _record_fault_stats(self, telemetry) -> None:
        """Fold the transport's recovery counters into telemetry + events.

        Strictly nonzero-only: a fault-free job emits no counters, no
        spans and no event, so its telemetry snapshot and event stream
        are bit-identical to a run without fault tolerance — which is
        also how chaos tests *prove* a run needed zero retries.
        """
        stats: FaultStats = getattr(self.transport, "last_fault_stats", None)
        if stats is None or not stats.any():
            return
        if telemetry is not None:
            metrics = telemetry.metrics
            if stats.worker_restarts:
                metrics.counter("fabric_worker_restarts").inc(
                    stats.worker_restarts)
            for reason, count in sorted(stats.retries.items()):
                metrics.counter("fabric_job_retries", reason=reason).inc(count)
            if stats.frame_errors:
                metrics.counter("fabric_frame_errors").inc(stats.frame_errors)
            if stats.degraded:
                metrics.counter("fabric_degraded").inc()
            for index, reason, attempt in stats.retry_log:
                with telemetry.span("fabric.retry", index=index,
                                    reason=reason, attempt=attempt):
                    pass
        if self.events is not None:
            reasons = ",".join(f"{reason}={count}" for reason, count
                               in sorted(stats.retries.items()))
            self.events.emit(FabricFaultStats(
                worker_restarts=stats.worker_restarts,
                job_retries=stats.total_retries,
                retry_reasons=reasons,
                quarantined=stats.quarantined,
                frame_errors=stats.frame_errors,
                degraded=stats.degraded))


class Scheduler:
    """Transport + worker count + callbacks, pluggable into ``evaluate_all``.

    ``transport`` is a name (``"inprocess"``, ``"spawn"``, ``"socket"``)
    or an already-configured :class:`BaseTransport` instance.  Name-built
    transports are owned by the scheduler and shut down by :meth:`close`
    (or the context manager); instances are borrowed and left running.
    :meth:`borrow` builds a scheduler over the process's idle fleet when it
    has the requested shape, and its :meth:`close` parks the fleet again
    (:func:`close_parked_fleets` releases it before exit).

    ``fault`` (a :class:`~repro.distrib.faults.FaultToleranceConfig` or
    wire dict) sets the transport's retry/restart/degradation policy;
    ``fault_plan`` arms deterministic fault injection for chaos testing.
    """

    def __init__(self, transport: Union[str, BaseTransport] = "spawn",
                 workers: int = 2,
                 progress: Optional[ProgressCallback] = None,
                 early_abort: Optional[EarlyAbortPolicy] = None,
                 events: Optional[EventBus] = None,
                 telemetry=None,
                 fault=None,
                 fault_plan=None,
                 **transport_options):
        if isinstance(transport, BaseTransport):
            if transport_options:
                raise DistribError("transport_options only apply when the "
                                   "scheduler builds the transport itself")
            self.transport = transport
            self._owns_transport = False
            if fault is not None:
                self.transport.fault_policy = \
                    FaultToleranceConfig.coerce(fault)
            if fault_plan is not None:
                self.transport.fault_plan = FaultPlan.coerce(fault_plan)
        else:
            if fault is not None:
                transport_options.setdefault("fault_policy", fault)
            if fault_plan is not None:
                transport_options.setdefault("fault_plan", fault_plan)
            self.transport = make_transport(transport, workers=workers,
                                            **transport_options)
            self._owns_transport = True
        self.workers = workers
        self.early_abort = early_abort
        #: Where :meth:`close` parks the transport (set by :meth:`borrow`).
        self._fleet_key: Optional[str] = None
        self._coordinator = Coordinator(self.transport, progress=progress,
                                        events=events, telemetry=telemetry)

    @classmethod
    def borrow(cls, transport: str = "spawn", workers: int = 2,
               progress: Optional[ProgressCallback] = None,
               early_abort: Optional[EarlyAbortPolicy] = None,
               events: Optional[EventBus] = None,
               telemetry=None, fault=None,
               **transport_options) -> "Scheduler":
        """A scheduler over the idle fleet of this shape, or a new one.

        Takes the same arguments as the constructor (``fault_plan`` only
        inside ``transport_options``).  A parked transport gets this
        call's fault-tolerance policy — the default when ``fault`` is
        ``None`` — never the previous borrower's.  :meth:`close` parks the
        fleet for the process's next borrower and the process closes it at
        exit; :func:`close_parked_fleets` closes it sooner.
        """
        key = _fleet_key(transport, workers, transport_options)
        parked = None
        if key is not None:
            with _PARKED_LOCK:
                parked = _PARKED.pop(key, None)
        if parked is None:
            scheduler = cls(transport, workers, progress, early_abort,
                            events, telemetry, fault=fault,
                            **transport_options)
        else:
            parked.fault_policy = FaultToleranceConfig.coerce(
                transport_options.get("fault_policy", fault))
            scheduler = cls(parked, workers, progress, early_abort, events,
                            telemetry)
            scheduler._owns_transport = True
        scheduler._fleet_key = key
        return scheduler

    @classmethod
    def from_config(cls, config, progress: Optional[ProgressCallback] = None,
                    events: Optional[EventBus] = None,
                    telemetry=None) -> "Scheduler":
        """Borrow a scheduler for a :class:`repro.api.RepairConfig`.

        The single construction path from declarative knobs (transport
        name, worker count, abort policy, fault-tolerance block, transport
        options) to a live scheduler — call sites hand over the config
        instead of wiring arguments.  ``config.transport`` of ``None``
        maps to ``"spawn"``, the portable default.
        """
        return cls.borrow(config.transport or "spawn", config.workers,
                          progress=progress,
                          early_abort=config.abort,
                          events=events,
                          telemetry=telemetry,
                          fault=getattr(config, "fault_tolerance", None),
                          **dict(config.transport_options))

    def run(self, backtester: Backtester,
            candidates: Sequence[RepairCandidate],
            progress: Optional[ProgressCallback] = None
            ) -> List[ShardOutcome]:
        """Evaluate ``candidates`` for ``backtester`` through the fabric."""
        return self._coordinator.run(backtester, candidates,
                                     abort_policy=self.early_abort,
                                     progress=progress)

    def close(self) -> None:
        """Release the transport: a borrowed fleet that is still
        :meth:`~BaseTransport.reusable` is parked for the next session of
        its shape (closing the fleet parked before it) and closed at exit;
        any other owned transport is shut down now."""
        key, self._fleet_key = self._fleet_key, None
        if key is not None and self.transport.reusable():
            with _PARKED_LOCK:
                displaced = list(_PARKED.values())
                _PARKED.clear()
                _PARKED[key] = self.transport
            self._owns_transport = False
            for fleet in displaced:
                fleet.close()
            return
        if self._owns_transport:
            self.transport.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
