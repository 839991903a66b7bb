"""Fault-tolerance primitives for the distributed backtest fabric.

The fabric's one recovery rule is a handful of module constants, the same
for every run, transport and service session (no config, flag or request
sets them):

* :data:`MAX_ATTEMPTS` — an item that fails on a worker is retried until
  it has been attempted this many times, then quarantined;
* :data:`RESTART_BUDGET` — how many crashed local workers one job may
  respawn, each after :func:`backoff` (:data:`BACKOFF_BASE_SECONDS` × 2ⁿ,
  capped at :data:`BACKOFF_CAP_SECONDS`);
* :func:`item_deadline` — an item's soft deadline, :data:`DEADLINE_FACTOR`
  × the timed baseline replay, floored at :data:`DEADLINE_FLOOR_SECONDS`;
* degradation — when no eligible worker is connected or booting and no
  restart is left, a transport drains the remaining queue serially
  in-process.

Fault-free runs trigger none of it.  Code reads the constants at call
time, so a test that needs another rule patches them here
(``faults.MAX_ATTEMPTS``), never a name bound by ``from … import``.

:class:`FaultPlan` / :class:`FaultAction`
    A deterministic fault-injection script, a :mod:`repro.wire` type:
    *kill worker 0 before its 2nd item*, *poison candidate 3*, *corrupt the
    result frame for item 1*.  Plans are seeded (:meth:`FaultPlan.generate`)
    and injectable into any transport, so chaos tests — and the CI chaos
    step — replay the exact same failure sequence every run and assert
    bit-identical reports.

:class:`FaultInjector` is the worker-side interpreter of a plan, and
:class:`QuarantinedItem` is what a transport delivers in place of an
item's outcome wire when the item exhausts its attempts; the coordinator
turns it into a deterministic error-shaped
:class:`~repro.backtest.replay.BacktestResult`.
"""

from __future__ import annotations

import os
import random
import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..wire import Wire

__all__ = [
    "FAULT_KINDS", "FaultAction", "FaultInjector", "FaultPlan",
    "FaultStats", "InjectedFault", "QuarantinedItem", "backoff",
    "item_deadline", "retry_or_quarantine",
]

#: Attempts an item gets before it is quarantined.
MAX_ATTEMPTS = 3
#: Crashed local workers one job may respawn (the service heals forever).
RESTART_BUDGET = 2
#: An item's soft deadline is this many times the baseline replay ...
DEADLINE_FACTOR = 50.0
#: ... but never less: even a millisecond baseline gets a generous
#: allowance, so a slow CI machine does not trip it.
DEADLINE_FLOOR_SECONDS = 30.0
#: Respawn backoff: ``min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2**n)``.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0


def item_deadline(estimate: Optional[float]) -> Optional[float]:
    """The per-item soft deadline in seconds for a job whose items each
    replay about ``estimate`` seconds; ``None`` (unbounded) without one."""
    if not estimate:
        return None
    return max(DEADLINE_FLOOR_SECONDS, DEADLINE_FACTOR * estimate)


def backoff(restart_number: int) -> float:
    """Seconds to wait before the ``restart_number``-th respawn."""
    return min(BACKOFF_CAP_SECONDS,
               BACKOFF_BASE_SECONDS * (2.0 ** restart_number))


#: Every fault kind a plan may script.  ``kill``/``hang``/``raise`` fire
#: before a worker evaluates its Nth item; ``poison`` fires on *every*
#: evaluation of one candidate index (the quarantine path); the ``*_result``
#: and ``*_frame`` kinds manipulate the result delivery after a successful
#: evaluation (they need a worker connection: the in-process transport
#: ignores them).
FAULT_KINDS = ("kill", "hang", "raise", "poison", "drop_result",
               "delay_result", "corrupt_frame", "truncate_frame")


class InjectedFault(RuntimeError):
    """Raised inside a worker loop by a ``raise``/``poison`` fault action."""


@dataclass(frozen=True)
class FaultAction(Wire):
    """One scripted failure.

    Trigger semantics: with ``index`` set the action targets one candidate
    (``poison`` fires on every attempt by any worker — that is what makes
    a candidate poisonous; other kinds fire once per worker).  Without
    ``index`` the action fires when worker ``worker`` (``None`` = any) is
    about to evaluate its ``after_items + 1``-th item.  Worker ids are
    never reused — a respawned replacement gets a fresh one — so it does
    not re-fire the fault that killed its predecessor.
    """

    wire_name = "fault action"

    kind: str
    worker: Optional[int] = None
    after_items: int = 0
    index: Optional[int] = None
    #: Sleep length for ``hang``/``delay_result``.
    seconds: float = 60.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected "
                             f"one of {sorted(FAULT_KINDS)}")


@dataclass
class FaultPlan(Wire):
    """A seeded, deterministic script of worker failures.

    A wire type (``FaultPlan.from_file`` reads ``repro repair --fault-plan
    plan.json``).  The plan is injected into a transport at construction
    (``fault_plan=``) and rides to workers with the job, so the same plan
    file reproduces the same failure sequence on any machine.
    """

    wire_name = "fault plan"

    seed: int = 0
    actions: Tuple[FaultAction, ...] = ()

    def __post_init__(self):
        self.actions = tuple(
            a if isinstance(a, FaultAction) else FaultAction.from_wire(a)
            for a in self.actions)

    @classmethod
    def generate(cls, seed: int, workers: int = 2, items: int = 4,
                 count: int = 2,
                 kinds: Tuple[str, ...] = ("kill", "raise", "delay_result")
                 ) -> "FaultPlan":
        """A deterministic pseudo-random plan: same seed, same plan."""
        rng = random.Random(seed)
        actions = tuple(
            FaultAction(kind=rng.choice(kinds),
                        worker=rng.randrange(workers),
                        after_items=rng.randrange(items),
                        seconds=round(rng.uniform(0.01, 0.1), 3))
            for _ in range(count))
        return cls(seed=seed, actions=actions)


@dataclass
class QuarantinedItem:
    """Delivered by a transport when an item exhausts its attempts.

    Takes the place of an outcome wire in the result stream; the
    coordinator converts it into a deterministic rejected
    ``BacktestResult`` (baseline stats, machine-readable
    ``quarantined(<reason>)`` note) so ``len(results)`` still equals the
    candidate count.  ``reason`` is one of the failure-taxonomy codes:
    ``worker-exception`` | ``worker-crash`` | ``deadline`` |
    ``frame-error``.
    """

    index: int
    reason: str
    attempts: int
    detail: str = ""


@dataclass
class FaultStats:
    """Per-``run_job`` recovery counters (``transport.last_fault_stats``).

    The coordinator folds these into telemetry (``fabric_worker_restarts``,
    ``fabric_job_retries{reason=…}``, ``fabric_quarantined``,
    ``fabric_frame_errors``, retry spans) and a ``fabric_fault_stats``
    session event after each job.
    """

    worker_restarts: int = 0
    retries: Dict[str, int] = field(default_factory=dict)
    #: One ``(index, reason, attempt)`` per retry, for retry spans.
    retry_log: List[Tuple[int, str, int]] = field(default_factory=list)
    quarantined: int = 0
    frame_errors: int = 0
    degraded: bool = False

    def record_retry(self, index: int, reason: str, attempt: int) -> None:
        self.retries[reason] = self.retries.get(reason, 0) + 1
        self.retry_log.append((index, reason, attempt))

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def any(self) -> bool:
        return bool(self.worker_restarts or self.retries or self.quarantined
                    or self.frame_errors or self.degraded)


def retry_or_quarantine(stats: FaultStats, index: int, attempts: int,
                        reason: str, detail: str = ""
                        ) -> Tuple[int, Optional[QuarantinedItem]]:
    """The fabric's one retry rule: charge a failed item an attempt.

    Returns ``(attempts, None)`` after recording a retry on ``stats`` —
    the caller requeues the item with the new count — or ``(attempts,
    QuarantinedItem)`` once the item has been tried :data:`MAX_ATTEMPTS`
    times.  The in-process drain, the worker pool (hence both process
    transports) and the repair service all decide through this function,
    so an item's fate never depends on where it ran.
    """
    attempts += 1
    if attempts >= MAX_ATTEMPTS:
        stats.quarantined += 1
        return attempts, QuarantinedItem(index=index, reason=reason,
                                         attempts=attempts, detail=detail)
    stats.record_retry(index, reason, attempts)
    return attempts, None


class FaultInjector:
    """Worker-side interpreter of a :class:`FaultPlan`.

    One injector per worker; :meth:`before_item` runs ahead of each
    evaluation (and may kill, hang or raise), and
    :meth:`result_action` tells the delivery path whether to tamper with
    this item's result.  ``inprocess=True`` maps process-level faults
    (``kill``, ``hang``) to raises, since the calling process must survive
    its own chaos test.
    """

    def __init__(self, plan: Optional[FaultPlan], worker_id: int = 0,
                 inprocess: bool = False):
        self.plan = FaultPlan.coerce(plan)
        self.worker_id = worker_id
        self.inprocess = inprocess
        self.items_seen = 0
        self._fired: set = set()

    def _positional_match(self, key: int, action: FaultAction) -> bool:
        return (key not in self._fired
                and (action.worker is None or action.worker == self.worker_id)
                and self.items_seen == action.after_items + 1)

    def before_item(self, index: int) -> None:
        if self.plan is None:
            return
        self.items_seen += 1
        for key, action in enumerate(self.plan.actions):
            if action.kind == "poison":
                if action.index == index:
                    raise InjectedFault(
                        f"poisoned candidate {index} (fault plan)")
                continue
            if action.kind not in ("kill", "hang", "raise"):
                continue
            if action.index is not None:
                if action.index != index or key in self._fired:
                    continue
            elif not self._positional_match(key, action):
                continue
            self._fired.add(key)
            if action.kind == "raise" or self.inprocess:
                raise InjectedFault(
                    f"injected {action.kind} before item {index} "
                    f"(worker {self.worker_id}, fault plan)")
            if action.kind == "hang":
                _time.sleep(action.seconds)
            else:                                        # kill
                os._exit(1)

    def result_action(self, index: int) -> Optional[FaultAction]:
        """The frame/result fault to apply to this item's delivery."""
        if self.plan is None or self.inprocess:
            return None
        for key, action in enumerate(self.plan.actions):
            if action.kind not in ("drop_result", "delay_result",
                                   "corrupt_frame", "truncate_frame"):
                continue
            if action.index is not None:
                if action.index != index or key in self._fired:
                    continue
            elif not self._positional_match(key, action):
                continue
            self._fired.add(key)
            return action
        return None
