"""The transport of the distributed backtest fabric.

A :class:`Transport` moves one :mod:`~repro.distrib.jobs` job at a time
through a worker set under *pull* scheduling: workers ask for the next
candidate index when they become free, so slow candidates (deep repair
programs, abort-policy survivors) never stall a statically assigned shard.
It is one class under three names, each mapped to a pool size by
:func:`fleet_size`:

``"inprocess"``
    Zero workers: every job drains serially in the calling process,
    through the same :class:`~repro.distrib.jobs.JobRuntime` the workers
    use (spec rebuild, candidate decode, the outcome wire the scheduler
    decodes) — the reference path and the zero-dependency fallback.

``"spawn"``, ``"socket"``
    Two names for one fleet: a :class:`~repro.distrib.pool.WorkerPool` of
    ``workers`` child processes (``python -m repro.distrib.worker``, each
    on its own socketpair) plus a one-job, input-order dispatch policy,
    draining one shared candidate queue.  Nothing is inherited from the
    parent but the socket (the job wire is the only input), so the path
    works without ``fork``.

Every transport applies the fabric's one **fault-tolerance rule** (the
constants of :mod:`repro.distrib.faults`) through
:func:`~repro.distrib.faults.retry_or_quarantine`: a failed item is
requeued with an attempt count and, after ``MAX_ATTEMPTS``, delivered as
a :class:`~repro.distrib.faults.QuarantinedItem` instead of poisoning the
job.  The pool adds prompt crash detection, budgeted backoff respawn and
per-item soft deadlines (the job wire's ``deadline``); this module adds
the last resort — when no eligible worker is connected or booting and no
restart budget is left, the remaining queue drains serially in-process,
a recorded downgrade, not an error.  Recovery counters of the most recent
job are on ``transport.last_fault_stats``; a
:class:`~repro.distrib.faults.FaultPlan` (``fault_plan=``) injects
failures deterministically for chaos tests (in-process, ``kill`` and
``hang`` degrade to raises).

A transport is reusable across jobs (workers persist between ``run_job``
calls, and so do their runtime caches); ``close()`` shuts the workers
down.  Sessions share fleets through
``Scheduler.borrow``, which parks a ``reusable()`` one between them
(:mod:`repro.distrib.coordinator`).

Security note.  Nothing listens: frames come only from the pool's own
children, each over a socketpair it created.  Frames stay size-capped
JSON, decoded into checked wire types (:mod:`repro.wire`), never code; an
oversize or a malformed frame drops the worker.
"""

from __future__ import annotations

import time as _time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..api.config import TRANSPORTS
from .faults import (FaultInjector, FaultPlan, FaultStats, QuarantinedItem,
                     retry_or_quarantine)
from .jobs import DistribError, JobRuntime, RuntimeCache, strip_candidates
from .pool import (TICK_SECONDS, DispatchPolicy, PoolJob, TransportError,
                   WorkItem, WorkerLink, WorkerPool)

__all__ = ["ResultCallback", "Transport", "fleet_size"]

#: Callback invoked by ``run_job`` as results stream in (completion order).
ResultCallback = Callable[[int, object], None]


def fleet_size(name: str, workers: int) -> int:
    """How many pool workers a transport named ``name`` runs: none
    ``"inprocess"``, ``workers`` under ``"spawn"`` and ``"socket"``."""
    if name not in TRANSPORTS:
        raise DistribError(f"unknown transport {name!r}; expected one of "
                           f"{sorted(TRANSPORTS)}")
    return 0 if name == "inprocess" else workers


class Transport(DispatchPolicy):
    """Run one job at a time, in the calling process or on a
    :class:`WorkerPool` served in input order.

    ``name`` is what spans, events and :attr:`name` report.  A pool-backed
    transport launches ``workers`` worker subprocesses.

    The pool supervises the fleet (crashes, respawn, deadlines, the retry
    rule); this class is its dispatch policy — the pending queue of
    the current job — plus the barrier ``run_job``, which delivers every
    result on the caller's thread, and the serial drain that is both the
    zero-worker path and the degradation of a fleet that is gone.
    """

    def __init__(self, name: str = "spawn", workers: int = 2,
                 result_timeout: float = 600.0, fault_plan=None):
        self.name = name = name.lower()
        self.workers = fleet_size(name, workers)
        #: Optional deterministic fault-injection script for chaos tests.
        self.fault_plan = FaultPlan.coerce(fault_plan)
        #: Recovery counters of the most recent ``run_job``.
        self.last_fault_stats = FaultStats()
        #: Runtimes built in *this* process (the serial drain's).
        self.runtime_cache = RuntimeCache()
        self.result_timeout = result_timeout
        self._pool = (WorkerPool(self, workers=self.workers,
                                 fault_plan=self.fault_plan)
                      if self.workers else None)
        # Per-job state, guarded by the pool's lock.
        self._job_id = 0
        self._job: Optional[PoolJob] = None
        #: The candidate wires ride with the dispatched items (the job
        #: frame carries a candidate-free header), so a worker only
        #: receives the candidates it evaluates.
        self._candidates: List[Dict] = []
        self._deadline: Optional[float] = None
        self._pending: deque = deque()          # (index, attempts)
        #: Results and quarantine rows waiting for ``run_job`` to deliver,
        #: and the indices that ever got one (a second is dropped).
        self._ready: List[Tuple[int, object]] = []
        self._settled: Set[int] = set()
        self._last_progress = 0.0
        #: Whether the last ``run_job`` delivered every result and returned.
        self._job_completed = False

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()

    def reusable(self) -> bool:
        """Whether another owner's next job may start on this transport as
        it is — the condition for ``Scheduler.close`` to park it instead of
        closing it: a running fleet with no fault plan armed (a worker's
        injector keeps its one-shot bookkeeping across jobs, so a reused
        chaos fleet would not re-fire its faults), whose last job returned
        normally and needed no recovery.  A job that raised — in the
        outcome decode, an interrupt — may leave items running on the
        workers, and only ``close()`` stops them."""
        return (self._pool is not None and self.fault_plan is None
                and self._pool.running and self._job_completed
                and not self.last_fault_stats.any())

    # -- job execution ------------------------------------------------------

    def run_job(self, job_wire: Dict, on_result: ResultCallback) -> None:
        pool = self._pool
        stats = self.last_fault_stats = FaultStats()
        remaining = len(job_wire["candidates"])
        if pool is None:
            injector = (FaultInjector(self.fault_plan, worker_id=0,
                                      inprocess=True)
                        if self.fault_plan is not None else None)
            self._drain_serially(job_wire, [(i, 0) for i in range(remaining)],
                                 on_result, stats, injector)
            return
        with pool.lock:
            if self._job is not None:
                raise TransportError("transport already has a job in flight")
            # A scheduler may have re-pointed the plan since construction.
            pool.fault_plan = self.fault_plan
            pool.begin_job(stats)
            pool.start()
            self._job_id += 1
            self._job = PoolJob(self._job_id, strip_candidates(job_wire))
            self._candidates = list(job_wire["candidates"])
            self._deadline = job_wire.get("deadline")
            self._pending = deque((i, 0) for i in range(remaining))
            self._ready, self._settled = [], set()
            self._last_progress = _time.monotonic()
            self._job_completed = False
            pool.changed.notify_all()
        try:
            while remaining > 0:
                with pool.lock:
                    ready, self._ready = self._ready, []
                    drain = (None if ready
                             else self._claim_degraded_items_locked())
                    if not ready and drain is None:
                        stalled = _time.monotonic() - self._last_progress
                        if not pool.running:
                            raise TransportError("transport closed")
                        if stalled > self.result_timeout:
                            raise TransportError(
                                f"no worker progress for "
                                f"{self.result_timeout}s "
                                f"({remaining} outstanding)")
                        pool.changed.wait(timeout=TICK_SECONDS)
                        continue
                # Outside the lock: a slow (or transport-touching) handler
                # must not stall dispatch, and neither must the serial
                # drain of a fleet that is gone for good.
                for index, outcome in ready:
                    on_result(index, outcome)
                if drain:
                    stats.degraded = True
                    self._drain_serially(job_wire, drain, on_result, stats)
                remaining -= len(ready) + len(drain or ())
                # Re-armed per delivery: the stall timeout bounds silence,
                # not total job duration.
                self._last_progress = _time.monotonic()
            self._job_completed = True
        except TransportError:
            # Whatever is still in flight belongs to a job nobody waits
            # for: tear the fleet down (the next run_job restarts it).
            self.close()
            raise
        finally:
            with pool.lock:
                self._job = None
                self._candidates = []
                self._pending = deque()

    def _drain_serially(self, job_wire: Dict,
                        items: List[Tuple[int, int]],
                        on_result: ResultCallback, stats: FaultStats,
                        injector: Optional[FaultInjector] = None) -> None:
        """Evaluate ``(index, attempts)`` items in this process, under the
        same retry rule as the worker paths — results stay bit-identical."""
        runtime = JobRuntime(job_wire, cache=self.runtime_cache)
        for index, attempts in items:
            while True:
                try:
                    if injector is not None:
                        injector.before_item(index)
                    outcome = runtime.evaluate(index)
                except Exception:        # noqa: BLE001 — the rule decides
                    attempts, outcome = retry_or_quarantine(
                        stats, index, attempts, "worker-exception",
                        traceback.format_exc())
                if outcome is not None:
                    break
            on_result(index, outcome)

    def _claim_degraded_items_locked(self) -> Optional[List[Tuple[int, int]]]:
        """Claim the pending queue for a serial drain, or ``None``:
        degradation triggers only when nothing can recover the job
        (:meth:`WorkerPool.can_serve`)."""
        if not self._pending or self._pool.can_serve(self._job_id):
            return None
        items = list(self._pending)
        self._pending.clear()
        self._settled.update(index for index, _ in items)
        return items

    # -- DispatchPolicy hooks (called by the pool) --------------------------

    def assign(self, link: WorkerLink) -> Optional[PoolJob]:
        """Hand the current job to ``link`` whenever candidate indices are
        pending — unless its own setup for this job already failed.  A
        worker re-enters a job it finished only when a peer's item was
        re-queued; re-serving the job (runtime rebuild included) is then
        the recovery path."""
        if (self._job is None or not self._pending
                or link.failed_job == self._job_id):
            return None
        return self._job

    def next_item(self, link: WorkerLink, job: PoolJob) -> Optional[WorkItem]:
        if job is not self._job or not self._pending:
            return None
        index, attempts = self._pending.popleft()
        return WorkItem(index, attempts, self._candidates[index],
                        self._deadline)

    def _settle(self, job: PoolJob, index: int, outcome) -> None:
        if job is self._job and index not in self._settled:
            self._settled.add(index)
            self._ready.append((index, outcome))
            self._pool.changed.notify_all()

    def result(self, job: PoolJob, item: WorkItem, outcome) -> None:
        with self._pool.lock:
            self._settle(job, item.index, outcome)

    def quarantine(self, job: PoolJob, item: WorkItem,
                   quarantined: QuarantinedItem) -> None:
        self._settle(job, item.index, quarantined)

    def retry(self, job: PoolJob, item: WorkItem, reason: str,
              detail: str) -> None:
        if job is self._job:
            self._pending.append((item.index, item.attempts))
            self._last_progress = _time.monotonic()

    def unstarted(self, job: PoolJob, item: Optional[WorkItem]) -> None:
        if job is self._job and item is not None:
            self._pending.appendleft((item.index, item.attempts))
