"""Distributed backtest fabric (scale-out candidate evaluation).

Backtesting dominates the repair loop's turnaround (Figure 9b): every
candidate replays the whole historical trace.  This package turns that
embarrassingly parallel workload into a schedulable fabric, with one way
to run a job — a :class:`Scheduler` over a :class:`Transport`, built from
a config by ``RepairConfig.make_scheduler`` only:

* :mod:`~repro.distrib.jobs` — the declarative job wire
  (:class:`BacktestJob`, a :mod:`repro.wire` type) built on spawn-safe
  :class:`~repro.scenarios.spec.ScenarioSpec` handles and candidate wires;
* :mod:`~repro.distrib.coordinator` — :class:`Scheduler`: input-order
  results, outcome decode, quarantine rows, the fault-stats fold,
  progress on the session's event bus; spawn sessions of one process
  borrow its one idle fleet (``Scheduler.borrow``), closed at exit or by
  :func:`close_parked_fleets`;
* :mod:`~repro.distrib.transport` — :class:`Transport`, one class under
  three names: ``"inprocess"`` is its zero-worker case (a serial drain in
  the calling process), ``"spawn"`` and ``"socket"`` name one
  pool-backed fleet;
* :mod:`~repro.distrib.pool` — the one supervised worker fleet
  (:class:`WorkerPool`): child processes on socketpairs, frame protocol,
  respawn, deadlines and the retry rule, parametrised by a
  :class:`DispatchPolicy`;
* :mod:`~repro.distrib.worker` — the worker main
  (``python -m repro.distrib.worker --fd N``), launched by the pool.

Every transport is an optimisation, not an approximation: reports are
bit-identical to serial evaluation, with an abort policy or without
(asserted across Q1-Q5 by ``tests/distrib/test_transport_parity.py``).
The same holds under faults: :mod:`~repro.distrib.faults` holds the one
retry/restart/quarantine rule every transport applies (module constants)
and a deterministic chaos harness (:class:`FaultPlan`), and
``tests/distrib/test_chaos.py`` asserts reports stay bit-identical under
injected worker crashes, hangs and frame corruption —
modulo the deterministic quarantine rows of genuinely poisonous
candidates.
"""

from .._lazy import lazy_exports
from ..backtest.abort import EarlyAbortPolicy
from .faults import (FAULT_KINDS, FaultAction, FaultInjector, FaultPlan,
                     FaultStats, InjectedFault, QuarantinedItem,
                     retry_or_quarantine)

# Sockets, subprocesses and frames load with the first name that needs them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "coordinator": ("Scheduler", "close_parked_fleets"),
    "jobs": ("BacktestJob", "BacktesterConfig", "DistribError",
             "JobRuntime", "JobWireError", "RuntimeCache", "build_job_wire",
             "job_digest", "strip_candidates"),
    "pool": ("DispatchPolicy", "FrameError", "PoolJob", "TransportError",
             "WorkItem", "WorkerPool"),
    "transport": ("Transport",),
})

__all__ = [
    "BacktestJob", "BacktesterConfig", "DispatchPolicy", "DistribError",
    "EarlyAbortPolicy", "FAULT_KINDS", "FaultAction", "FaultInjector",
    "FaultPlan", "FaultStats", "FrameError",
    "InjectedFault", "JobRuntime", "JobWireError", "PoolJob",
    "QuarantinedItem", "RuntimeCache", "Scheduler", "Transport",
    "TransportError", "WorkItem", "WorkerPool", "build_job_wire",
    "close_parked_fleets", "job_digest", "retry_or_quarantine",
    "strip_candidates",
]
