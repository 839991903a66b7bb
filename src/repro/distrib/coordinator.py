"""The scheduler: one backtest job through one transport, in input order.

Dispatch is dynamic and pull-based: per-candidate work items sit in one
queue, workers take the next item when they finish the last, and results
stream back as they complete.  :class:`Scheduler`

* reorders streamed results into **input order** (the order callers and
  reports rely on),
* decodes each ``ShardOutcome`` wire and re-attaches the caller's
  candidate object (the meta provenance tree stays here),
* hands each outcome, as it completes, to the backtester's ``delivered``
  callback, which publishes :class:`~repro.events.BacktestProgress` for it
  and for the candidates judged from it — the one progress channel,
  shared with the serial loop (:func:`repro.bus.publish_progress`),
* ships the backtester's knobs, its
  :class:`~repro.backtest.abort.EarlyAbortPolicy` included, on the job
  wire, so workers replay and judge as the serial loop does, and
* converts :class:`~repro.distrib.faults.QuarantinedItem` deliveries
  (items that exhausted their retry budget) into deterministic rejected
  results — so ``len(results) == len(candidates)`` holds even when a
  candidate is poisonous — emitting ``candidate_quarantined`` events and
  folding the transport's recovery counters into telemetry
  (``fabric_worker_restarts``, ``fabric_job_retries{reason=…}``,
  ``fabric_quarantined``, ``fabric_frame_errors``, retry spans) and a
  ``fabric_fault_stats`` event after each job — each event built only
  when its bus is :attr:`~repro.bus.EventBus.listening`.

It plugs into ``Backtester.evaluate_all(..., scheduler=...)``::

    from repro.distrib import Scheduler
    with Scheduler(transport="spawn", workers=4) as scheduler:
        report = Backtester(scenario).evaluate_all(candidates,
                                                   scheduler=scheduler)

A config reaches a scheduler only through ``RepairConfig.make_scheduler``
→ :meth:`Scheduler.from_config`, when it names a transport or asks for
``workers > 1``.  Such a session does not start a fleet of its own:
:meth:`Scheduler.borrow` takes the process's idle fleet when it has the
same shape — transport name, worker count, transport options — and
:meth:`Scheduler.close` parks it again, so the second session in a process
finds its workers up, with the scenario rebuilt and the baseline replayed
in their runtime caches.  A process keeps at most one idle fleet, whatever
its shape: parking a fleet closes the one parked before it (sessions that
run at once each get their own fleet).  Only a fleet whose transport says
it is :meth:`~repro.distrib.transport.Transport.reusable` is parked; any
other is closed on the spot.  The idle fleet is closed at interpreter
exit, or earlier by :func:`close_parked_fleets`.  A ``Scheduler(...)``
built directly owns its transport.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..backtest.replay import Backtester, ShardOutcome
from ..bus import EventBus
from ..repair.candidates import RepairCandidate
from ..wire import decode
from .faults import FaultPlan, FaultStats, QuarantinedItem, item_deadline
from .jobs import DistribError, build_job_wire
from .transport import Transport

#: The idle fleet: at most one entry, the canonical JSON of ``[transport
#: name, workers, transport_options]`` -> a running transport nobody holds.
_PARKED: Dict[str, Transport] = {}
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


class Scheduler:
    """A transport and its worker count, pluggable into ``evaluate_all``.

    ``transport`` is a name (``"inprocess"``, ``"spawn"``, ``"socket"``)
    or an already-configured :class:`Transport`.  Name-built transports
    are owned by the scheduler and shut down by :meth:`close` (or the
    context manager); instances are borrowed and left running.
    :meth:`borrow` builds a scheduler over the process's idle fleet when it
    has the requested shape, and its :meth:`close` parks the fleet again.

    ``fault_plan`` arms deterministic fault injection for chaos testing;
    the retry/restart/degradation rule is the same for every scheduler
    (:mod:`repro.distrib.faults`).
    ``events`` is the bus a run publishes on when ``evaluate_all`` names
    none; ``telemetry`` defaults to the backtester's bundle.
    """

    def __init__(self, transport: Union[str, Transport] = "spawn",
                 workers: int = 2,
                 events: Optional[EventBus] = None, telemetry=None,
                 fault_plan=None, **transport_options):
        if isinstance(transport, Transport):
            if transport_options:
                raise DistribError("transport_options only apply when the "
                                   "scheduler builds the transport itself")
            self.transport = transport
            self._owns_transport = False
            if fault_plan is not None:
                self.transport.fault_plan = FaultPlan.coerce(fault_plan)
        else:
            if fault_plan is not None:
                transport_options.setdefault("fault_plan", fault_plan)
            self.transport = Transport(transport, workers=workers,
                                       **transport_options)
            self._owns_transport = True
        self.workers = workers
        self.events = events
        self.telemetry = telemetry
        #: Set by :meth:`from_config` for ``workers > 1`` with no transport
        #: named: the backtester then runs a job too small for a fleet, or
        #: of a spec-less scenario, serially instead
        #: (``Backtester._run_candidates``).
        self.gated = False
        #: Where :meth:`close` parks the transport (set by :meth:`borrow`).
        self._fleet_key: Optional[str] = None

    @classmethod
    def borrow(cls, transport: str = "spawn", workers: int = 2,
               events: Optional[EventBus] = None, telemetry=None,
               **transport_options) -> "Scheduler":
        """A scheduler over the idle fleet of this shape, or a new one.

        Takes the same arguments as the constructor (``fault_plan`` only
        inside ``transport_options``).  :meth:`close` parks the fleet for
        the process's next borrower and the process closes it at exit;
        :func:`close_parked_fleets` closes it sooner.
        """
        key = _fleet_key(transport, workers, transport_options)
        parked = None
        if key is not None:
            with _PARKED_LOCK:
                parked = _PARKED.pop(key, None)
        if parked is None:
            scheduler = cls(transport, workers, events, telemetry,
                            **transport_options)
        else:
            scheduler = cls(parked, workers, events, telemetry)
            scheduler._owns_transport = True
        scheduler._fleet_key = key
        return scheduler

    @classmethod
    def from_config(cls, config, events: Optional[EventBus] = None,
                    telemetry=None) -> "Scheduler":
        """Borrow a scheduler for a :class:`repro.api.RepairConfig`.

        The single construction path from declarative knobs (transport
        name, worker count, transport options) to a live scheduler; the
        abort policy rides the backtester (``RepairConfig.make_backtester``).
        ``config.transport`` of ``None`` maps to ``"spawn"`` behind the
        min-work gate (:attr:`gated`).
        """
        scheduler = cls.borrow(config.transport or "spawn", config.workers,
                               events, telemetry,
                               **dict(config.transport_options))
        scheduler.gated = config.transport is None
        return scheduler

    def run(self, backtester: Backtester,
            candidates: Sequence[RepairCandidate],
            delivered: Callable[[int, ShardOutcome], None],
            events: Optional[EventBus] = None) -> List[ShardOutcome]:
        """Evaluate ``candidates`` for ``backtester`` through the
        transport; each outcome goes to ``delivered(index, outcome)`` as
        it completes, quarantine rows and fault stats to ``events``
        (``evaluate_all`` passes its bus, or this scheduler's)."""
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
        # Per-item soft deadline: the timed baseline replay (Diagnose's
        # recorded run in a session, else the backtester's own, replayed by
        # ``evaluate_all`` before the scheduler runs) estimates one
        # candidate's cost, which the fabric's rule scales and floors.
        deadline = item_deadline(getattr(backtester, "_baseline_seconds",
                                         None))
        job_wire = build_job_wire(backtester, candidates,
                                  telemetry=telemetry,
                                  deadline=deadline)
        outcomes: List[Optional[ShardOutcome]] = [None] * len(candidates)
        done = 0

        def on_result(index: int, outcome) -> None:
            # The transport delivers every result on this thread.
            nonlocal done
            if isinstance(outcome, QuarantinedItem):
                outcome = self._quarantine(backtester, candidates[index],
                                           outcome, telemetry, events)
            else:
                outcome = decode(ShardOutcome, outcome)
                outcome.result.candidate = candidates[index]
            outcomes[index] = outcome
            done += 1
            if telemetry is not None:
                telemetry.metrics.counter("fabric_items").inc()
                telemetry.metrics.gauge("fabric_queue_depth").set(
                    len(candidates) - done)
            delivered(index, outcome)

        try:
            self.transport.run_job(job_wire, on_result)
        finally:
            self._record_fault_stats(telemetry, events)
            if job_span is not None:
                job_span.finish()
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise DistribError(f"transport {self.transport.name!r} returned "
                               f"no result for candidates {missing}")
        return outcomes

    def _quarantine(self, backtester: Backtester,
                    candidate: RepairCandidate, item: QuarantinedItem,
                    telemetry, events) -> ShardOutcome:
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
        if events is not None and events.listening:
            from ..events import CandidateQuarantined
            events.emit(CandidateQuarantined(
                index=item.index, description=candidate.description or "",
                reason=item.reason, attempts=item.attempts))
        if telemetry is not None:
            telemetry.metrics.counter("fabric_quarantined",
                                      reason=item.reason).inc()
        return ShardOutcome(result=result)

    def _record_fault_stats(self, telemetry, events) -> None:
        """Fold the transport's recovery counters into telemetry + events.

        Strictly nonzero-only: a fault-free job emits no counters, no
        spans and no event, so its telemetry snapshot and event stream
        are bit-identical to a run without fault tolerance — which is
        also how chaos tests *prove* a run needed zero retries.
        """
        stats: FaultStats = self.transport.last_fault_stats
        if not stats.any():
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
        if events is not None and events.listening:
            from ..events import FabricFaultStats
            reasons = ",".join(f"{reason}={count}" for reason, count
                               in sorted(stats.retries.items()))
            events.emit(FabricFaultStats(
                worker_restarts=stats.worker_restarts,
                job_retries=stats.total_retries,
                retry_reasons=reasons,
                quarantined=stats.quarantined,
                frame_errors=stats.frame_errors,
                degraded=stats.degraded))

    def close(self) -> None:
        """Release the transport: a borrowed fleet that is still
        :meth:`~Transport.reusable` is parked for the next session of its
        shape (closing the fleet parked before it) and closed at exit; any
        other owned transport is shut down now."""
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
