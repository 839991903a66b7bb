"""The repair-service coordinator daemon: many tenants, one worker fleet.

The fabric transports move one job at a time through a worker set with
barrier semantics (``run_job`` blocks until every item is delivered) —
the right shape for a backtest stage, the wrong shape for a long-lived
service accepting submissions while others run.  The
:class:`RepairServiceDaemon` therefore drives the *same*
:class:`~repro.distrib.pool.WorkerPool` — same worker processes, frame
protocol, supervision and retry rule — with a
different :class:`~repro.distrib.pool.DispatchPolicy`: every repair
session is one single-item job (:class:`~repro.service.wire.RepairJob`),
idle workers pull the next session the moment they finish one, and
sessions from different tenants interleave across the fleet.  What this
module adds to the pool is that policy and the session records.

Scheduling is **per-tenant fair-share**: when a worker frees up, the
daemon picks the queued tenant with the fewest sessions currently
running, breaking ties by least-recently-dispatched — so a tenant that
dumps a hundred sessions cannot starve a tenant submitting one.

The fabric's fault rule (:mod:`repro.distrib.faults`) applies per repair
job, and no submission can change it: a worker crash, exception or —
when :data:`SESSION_DEADLINE_SECONDS` is set — hang requeues the session
with an attempt charged, and a session out of attempts is failed with the
same ``quarantined(<reason>) after N attempts`` shape the backtest fabric
uses.  Dead workers are respawned forever (a crash streak only lengthens
the capped backoff); respawned workers get fresh worker ids, so positional
:class:`~repro.distrib.faults.FaultPlan` actions do not re-fire.

Events stream live: workers forward every
:class:`~repro.events.SessionEvent` as a ``{"type": "event"}`` frame,
and the daemon appends them to the owning session's record — per-session
ordering is inherent (one session runs on one connection at a time).
A retried session's partial event stream is discarded, so the final
stream is always one complete, clean run; the record's ``generation``
counts the discards, so a follower that was reading the old stream
starts over on the new one instead of splicing the two.

Finished sessions stay readable — status, report and event stream — up
to :data:`MAX_FINISHED_SESSIONS` of them: when a session ends with more
than that many finished, the oldest submitted ones are dropped and their
ids answer 404 from then on.  Queued and running sessions are never
dropped, so a long-lived ``repro serve`` holds a bounded number of records
however many sessions it has served.

Readers block on the pool's condition rather than sleep: every
transition (submit, event, requeue, finish, stop) notifies it, and
:meth:`RepairServiceDaemon.wait` / :meth:`RepairServiceDaemon.events_since`
wake on the one they wait for — the long-poll primitives behind
``GET /sessions/<id>?wait=`` and ``/events?follow=1``.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..api.config import ConfigError, RepairConfig
from ..distrib.faults import FaultStats, QuarantinedItem
from ..distrib.pool import (DispatchPolicy, PoolJob, WorkItem, WorkerLink,
                            WorkerPool)
from ..obs.metrics import MetricsRegistry
from .wire import RepairJob

#: Session lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL_STATES = frozenset({DONE, FAILED})

#: Finished (done or failed) session records a daemon keeps; the oldest
#: one goes first when another session finishes.
MAX_FINISHED_SESSIONS = 1000

#: A running session's soft deadline in seconds; ``None``: none.  There is
#: no baseline estimate of a whole run up front to scale one from.
SESSION_DEADLINE_SECONDS: Optional[float] = None


class ServiceError(RuntimeError):
    """Raised for service-level failures (bad submissions, draining)."""


class ServiceUnavailable(ServiceError):
    """The daemon is draining and accepts no new sessions."""


@dataclass
class SessionRecord:
    """Everything the daemon tracks about one submitted repair session."""

    session_id: str
    tenant: str
    config: RepairConfig
    state: str = QUEUED
    attempts: int = 0
    submitted_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: The ranked report wire (``DiagnosisReport.to_wire``), once done.
    report: Optional[Dict] = None
    #: Per-stage wall-clock seconds from the worker, once done.
    stage_seconds: Optional[Dict] = None
    #: ``quarantined(<reason>) after N attempts`` when the state is failed.
    error: str = ""
    #: Long-form failure detail (last traceback / crash note).
    error_detail: str = ""
    #: Forwarded SessionEvent wires of the current attempt, in emission
    #: order.
    events: List[Dict] = field(default_factory=list)
    #: Bumped each time a requeue discards ``events``.
    generation: int = 0
    worker_id: Optional[int] = None

    def summary(self) -> Dict[str, object]:
        """Status view (``GET /sessions`` row)."""
        scenario = self.config.scenario.name if self.config.scenario else "?"
        return {
            "id": self.session_id,
            "tenant": self.tenant,
            "scenario": scenario,
            "state": self.state,
            "attempts": self.attempts,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "events": len(self.events),
            "error": self.error,
        }

    def to_wire(self) -> Dict[str, object]:
        """Full view (``GET /sessions/<id>``): status + ranked report."""
        wire = self.summary()
        wire["report"] = self.report
        wire["stage_seconds"] = self.stage_seconds
        return wire


class RepairServiceDaemon(DispatchPolicy):
    """Accept, schedule and supervise many concurrent repair sessions.

    ``workers`` worker subprocesses serve the daemon's pool (``0``: none,
    and the policy hooks are driven by hand).  ``fault_plan`` arms
    deterministic chaos against the fleet, exactly like the transports.

    ``on_event`` (optional) observes every forwarded session event as a
    wire dict annotated with ``session_id``/``tenant`` — the ``repro
    serve --events`` JSONL log hangs off this hook.

    The daemon keeps every queued and running session and the newest
    :data:`MAX_FINISHED_SESSIONS` finished ones (module docstring).
    """

    def __init__(self, workers: int = 2, fault_plan=None,
                 metrics: Optional[MetricsRegistry] = None,
                 on_event: Optional[Callable[[Dict], None]] = None):
        self.metrics = metrics or MetricsRegistry()
        self.on_event = on_event
        self._pool = WorkerPool(self, workers=workers, fault_plan=fault_plan,
                                unlimited_restarts=True)
        # One lock for fleet and sessions: every hook below that the pool
        # calls with its lock held can touch the records directly.
        self._lock = self._pool.lock
        self._changed = self._pool.changed
        self._draining = False
        self._stopped = False
        #: In submission order, which is the order of listings.
        self._records: Dict[str, SessionRecord] = {}
        self._queues: Dict[str, deque] = {}   # tenant -> deque[SessionRecord]
        self._running: Dict[str, SessionRecord] = {}   # by session id
        self._dispatch_seq = itertools.count()
        self._last_dispatch: Dict[str, int] = {}
        self._submitted = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RepairServiceDaemon":
        self._pool.start()
        return self

    @property
    def fault_stats(self) -> FaultStats:
        """Cumulative recovery counters (a transport's
        ``last_fault_stats``, but over the daemon's lifetime)."""
        return self._pool.stats

    def stop(self, grace: float = 10.0) -> None:
        """Drain and shut down: wait up to ``grace`` seconds for running
        sessions, requeue whatever is still in flight (no attempt charged
        — the operator interrupted it, not a fault), close the pool (which
        kills workers still evaluating), and flush the event hook if it
        can be flushed."""
        with self._lock:
            self._draining = True
            self._changed.wait_for(lambda: not self._running,
                                   timeout=max(0.0, grace))
            for record in list(self._running.values()):
                self._requeue_locked(record)
            self._stopped = True
            self._changed.notify_all()
        self._pool.close()
        sync = getattr(self.on_event, "sync", None)
        if callable(sync):
            sync()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()

    # ------------------------------------------------------------------
    # Submission and inspection
    # ------------------------------------------------------------------

    def submit(self, config, tenant: str = "default") -> str:
        """Queue one repair session; returns its id immediately."""
        config = RepairConfig.coerce(config)
        if config is None or config.scenario is None:
            raise ConfigError("submitted config names no scenario")
        tenant = str(tenant or "default")
        with self._lock:
            if self._draining:
                raise ServiceUnavailable("service is draining")
            self._submitted += 1
            session_id = f"s-{self._submitted:04d}"
            record = SessionRecord(session_id=session_id, tenant=tenant,
                                   config=config, submitted_unix=_time.time())
            self._records[session_id] = record
            self._queues.setdefault(tenant, deque()).append(record)
            self.metrics.counter("service_sessions_submitted",
                                 tenant=tenant).inc()
            self._changed.notify_all()
        return session_id

    def get(self, session_id: str) -> SessionRecord:
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise KeyError(session_id)
        return record

    def sessions(self) -> List[Dict[str, object]]:
        with self._lock:
            return [record.summary() for record in self._records.values()]

    def session_wire(self, session_id: str) -> Dict[str, object]:
        record = self.get(session_id)
        with self._lock:
            return record.to_wire()

    def events_since(self, session_id: str, offset: int = 0,
                     generation: Optional[int] = None,
                     timeout: Optional[float] = 0.0
                     ) -> Tuple[int, List[Dict], bool]:
        """``(generation, events, ended)`` — the ``/events?follow=1``
        primitive.

        ``events`` are the current attempt's event wires from ``offset``
        on if ``generation`` names that attempt, else all of them (a
        requeue discarded the stream the caller was reading).  Blocks up
        to ``timeout`` seconds (``None``: no limit) until there is
        something to report: a new event, a new attempt, or ``ended`` —
        the session is terminal or the daemon stopped."""
        record = self.get(session_id)
        with self._lock:
            self._changed.wait_for(
                lambda: (record.generation != generation
                         or len(record.events) > offset
                         or record.state in TERMINAL_STATES
                         or self._stopped),
                timeout)
            if record.generation != generation:
                offset = 0
            return (record.generation, record.events[offset:],
                    record.state in TERMINAL_STATES or self._stopped)

    def wait(self, session_id: str,
             timeout: Optional[float] = 120.0) -> SessionRecord:
        """Block until the session is terminal; raises on timeout."""
        record = self.get(session_id)
        with self._lock:
            self._changed.wait_for(
                lambda: record.state in TERMINAL_STATES or self._stopped,
                timeout)
            if record.state in TERMINAL_STATES:
                return record
            if self._stopped:
                raise ServiceError(f"service stopped while session "
                                   f"{session_id} was {record.state}")
            raise TimeoutError(f"session {session_id} still {record.state} "
                               f"after {timeout}s")

    def metrics_snapshot(self) -> Dict[str, object]:
        """The registry's snapshot (``GET /metrics``).  Gauges and the
        fleet counters are derived state: they are brought up to date
        here, at read time, not at every transition."""
        with self._lock:
            running = _Counter(r.tenant for r in self._running.values())
            for tenant, queue in self._queues.items():
                self.metrics.gauge("service_queue_depth",
                                   tenant=tenant).set(len(queue))
                self.metrics.gauge("service_sessions_running",
                                   tenant=tenant).set(running.get(tenant, 0))
            self.metrics.gauge("service_workers_connected").set(
                len(self._pool.links))
            stats = self._pool.stats
            for name, total in (
                    ("service_worker_restarts", stats.worker_restarts),
                    ("service_frame_errors", stats.frame_errors)):
                if total:
                    counter = self.metrics.counter(name)
                    counter.inc(total - counter.value)
        return self.metrics.snapshot()

    def status(self) -> Dict[str, object]:
        """Health view (``GET /healthz``): drain state, the pool's fleet
        view, session totals, and per-tenant queue depth with the age of
        the longest-waiting queued session."""
        with self._lock:
            now = _time.time()
            tenants = {
                tenant: {"queued": len(queue),
                         "oldest_queued_age_s": round(
                             max(0.0, now - min(r.submitted_unix
                                                for r in queue)), 3)
                         if queue else 0.0}
                for tenant, queue in sorted(self._queues.items())}
            return {
                "state": ("draining" if self._draining else "serving"),
                **self._pool.status(),
                "sessions_total": self._submitted,
                "sessions_queued": sum(t["queued"] for t in tenants.values()),
                "sessions_running": len(self._running),
                "tenants": tenants,
            }

    # ------------------------------------------------------------------
    # Dispatch policy (called by the pool; lock held unless noted)
    # ------------------------------------------------------------------

    def assign(self, link: WorkerLink) -> Optional[PoolJob]:
        """Fair share: the queued tenant with the fewest running sessions,
        ties broken by least-recently-dispatched."""
        tenants = [t for t, q in self._queues.items() if q]
        if self._draining or not tenants:
            return None
        running = _Counter(r.tenant for r in self._running.values())
        tenant = min(tenants, key=lambda t: (running.get(t, 0),
                                             self._last_dispatch.get(t, -1),
                                             t))
        record = self._queues[tenant].popleft()
        record.state = RUNNING
        record.started_unix = _time.time()
        record.worker_id = link.worker_id
        self._running[record.session_id] = record
        self._last_dispatch[tenant] = next(self._dispatch_seq)
        job = RepairJob(session_id=record.session_id, config=record.config,
                        tenant=record.tenant,
                        submitted_unix=record.submitted_unix)
        return PoolJob(record, job.to_wire())

    def _work_item(self, record: SessionRecord) -> WorkItem:
        """A repair job has exactly one item: the run itself, under
        :data:`SESSION_DEADLINE_SECONDS`."""
        return WorkItem(0, record.attempts, None, SESSION_DEADLINE_SECONDS)

    def next_item(self, link: WorkerLink, job: PoolJob) -> Optional[WorkItem]:
        record: SessionRecord = job.key
        if record.state != RUNNING or record.worker_id != link.worker_id:
            return None                  # finished, failed or moved on
        return self._work_item(record)

    def event(self, job: PoolJob, wire: Dict) -> None:
        """No lock held: the hook may be slow."""
        record: SessionRecord = job.key
        with self._lock:
            if record.state == RUNNING:
                record.events.append(wire)
                self._changed.notify_all()   # wakes ?follow=1 streams
        hook = self.on_event
        if hook is not None:
            annotated = dict(wire)
            annotated["session_id"] = record.session_id
            annotated["tenant"] = record.tenant
            try:
                hook(annotated)
            except Exception:            # noqa: BLE001 — observers never kill
                pass

    def result(self, job: PoolJob, item: WorkItem, outcome) -> None:
        """No lock held."""
        record: SessionRecord = job.key
        with self._lock:
            if record.state != RUNNING:
                return                   # raced a requeue (deadline/drain)
            self._running.pop(record.session_id, None)
            record.state = DONE
            record.finished_unix = _time.time()
            if isinstance(outcome, dict):
                record.report = outcome.get("report")
                record.stage_seconds = outcome.get("stage_seconds")
            self.metrics.counter("service_sessions_finished",
                                 tenant=record.tenant, state=DONE).inc()
            if record.started_unix:
                self.metrics.histogram(
                    "service_session_seconds", tenant=record.tenant).observe(
                        record.finished_unix - record.started_unix)
            self._forget_finished_locked()
            self._changed.notify_all()

    def retry(self, job: PoolJob, item: WorkItem, reason: str,
              detail: str) -> None:
        record: SessionRecord = job.key
        if record.state != RUNNING:
            return
        record.attempts = item.attempts
        record.error_detail = detail
        self.metrics.counter("service_job_retries",
                             tenant=record.tenant, reason=reason).inc()
        self._requeue_locked(record)

    def quarantine(self, job: PoolJob, item: WorkItem,
                   quarantined: QuarantinedItem) -> None:
        record: SessionRecord = job.key
        if record.state != RUNNING:
            return
        self._running.pop(record.session_id, None)
        record.attempts = quarantined.attempts
        record.worker_id = None
        record.state = FAILED
        record.finished_unix = _time.time()
        record.error = (f"quarantined({quarantined.reason}) after "
                        f"{quarantined.attempts} attempts")
        record.error_detail = quarantined.detail
        self.metrics.counter("service_sessions_finished",
                             tenant=record.tenant, state=FAILED).inc()
        self.metrics.counter("service_quarantined", tenant=record.tenant,
                             reason=quarantined.reason).inc()
        self._forget_finished_locked()

    def _forget_finished_locked(self) -> None:
        """Drop the oldest finished records beyond
        :data:`MAX_FINISHED_SESSIONS`.  A reader already holding a dropped
        record (a long poll, a follower) still reads it to the end."""
        finished = [session_id for session_id, record in self._records.items()
                    if record.state in TERMINAL_STATES]
        for session_id in finished[:max(0, len(finished)
                                        - MAX_FINISHED_SESSIONS)]:
            del self._records[session_id]

    def unstarted(self, job: PoolJob, item: Optional[WorkItem]) -> None:
        if job.key.state == RUNNING:
            self._requeue_locked(job.key)

    def setup_failed(self, link: WorkerLink, job: PoolJob,
                     detail: str) -> None:
        """A worker that cannot even decode the job is charged like one
        that raised evaluating it (and may be offered the retry)."""
        if job.key.state == RUNNING:
            self._pool.fail_item(job, self._work_item(job.key),
                                 "worker-exception", detail)

    def _requeue_locked(self, record: SessionRecord) -> None:
        """Back to the front of its tenant's queue (it already waited);
        the partial event stream goes — the rerun replaces it."""
        self._running.pop(record.session_id, None)
        record.state = QUEUED
        record.worker_id = None
        record.events.clear()
        record.generation += 1
        self._queues[record.tenant].appendleft(record)
        self._changed.notify_all()
