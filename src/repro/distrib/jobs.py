"""Backtest jobs: what crosses the wire, and how workers execute it.

A *job* describes one ``evaluate_all`` call declaratively so that a process
with no shared memory — a local ``repro-worker`` or one on another machine —
can rebuild everything it needs.  Its wire is one :mod:`repro.wire` type,
:class:`BacktestJob` (``"kind": "backtest"``): the scenario as a
:class:`~repro.scenarios.spec.ScenarioSpec`, the backtester's knobs as a
:class:`BacktesterConfig`, the early-abort policy, the per-item deadline,
the coordinator's telemetry context, and the candidates or, in a header,
their count.  :func:`build_job_wire` returns the JSON wire, so any
transport that can move dicts can move jobs, and :class:`JobRuntime`
decodes it once: a malformed job is a :class:`JobWireError` before any
work starts.  Results flow the other way as
:class:`~repro.backtest.replay.ShardOutcome` wires, which carry no
candidate: the scheduler decodes each one and re-attaches its own copy,
meta provenance tree included.

The :class:`JobRuntime` is the worker half: it rebuilds the scenario and
backtester once per job and then serves per-candidate work items by index.
Because the runtime calls the same ``Backtester.evaluate_outcome`` as the
serial loop (which builds the multi-query shared trunk on first use), its
results are bit-identical to the serial path's.

Two refinements keep repeated jobs cheap:

* **Runtime cache.**  Workers persist across jobs, so they keep a
  :class:`RuntimeCache` keyed by the job's :func:`job_digest` — the
  scenario spec and backtester configuration.  A repeated
  ``evaluate_all`` on the same scenario reuses the worker's scenario,
  backtester (its baseline included) and already-built shared trunk instead
  of rebuilding them from the wire.  Candidates themselves share nothing:
  each one builds its own engine and topology.
* **Candidate streaming.**  A job may ship *without* its candidate list
  (:func:`strip_candidates` replaces it with a count); candidate wires then
  arrive individually with each dispatched item, so a worker only ever
  receives the candidates it actually evaluates — this is what the socket
  transport uses instead of re-sending the whole list to every connection.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time as _time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..backtest.abort import EarlyAbortPolicy
from ..backtest.replay import Backtester
from ..obs.telemetry import JobContext, Telemetry
from ..repair.candidates import RepairCandidate, candidate_from_wire
from ..scenarios.spec import ScenarioSpec
from ..wire import Wire, WireError, encode


class DistribError(RuntimeError):
    """Raised for fabric-level failures (bad jobs, unusable scenarios)."""


class JobWireError(WireError, DistribError):
    """A backtest job wire that does not describe a job."""


@dataclass(frozen=True)
class BacktesterConfig:
    """The ``Backtester`` keywords a job carries.  Parallelism is not one of
    them: it is the scheduler's business, and a worker's backtester never
    gets a scheduler, so it cannot start a fleet of its own."""

    ks_threshold: float
    alpha: float
    use_significance: bool
    trace_limit: Optional[int]
    max_packet_in_growth: Optional[float]
    replay_batch_size: Optional[int]
    multiquery: bool


@dataclass(frozen=True)
class BacktestJob(Wire):
    """One ``evaluate_all`` call, with its candidates or, as a header, with
    their count.  ``abort``, ``deadline`` and ``telemetry`` are per job and
    stay out of :func:`job_digest`, so toggling them never defeats a
    worker's runtime cache."""

    wire_name, wire_error = "backtest job", JobWireError
    #: Tells the wire from a repair job's (:func:`build_runtime`).
    kind = "backtest"

    spec: ScenarioSpec
    config: BacktesterConfig
    abort: Optional[EarlyAbortPolicy] = None
    #: Seconds before a transport gives up on a hung worker's item.
    deadline: Optional[float] = None
    telemetry: Optional[JobContext] = None
    candidates: Optional[Tuple[RepairCandidate, ...]] = None
    candidate_count: Optional[int] = None

    def __post_init__(self):
        if (self.candidates is None) == (self.candidate_count is None):
            raise ValueError("a backtest job carries either its candidates "
                             "or candidate_count")


def build_job_wire(backtester: Backtester,
                   candidates: Sequence[RepairCandidate],
                   abort_policy: Optional[EarlyAbortPolicy] = None,
                   telemetry=None, deadline: Optional[float] = None) -> Dict:
    """Describe one ``evaluate_all`` call as a :class:`BacktestJob` wire.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) adds the coordinator's
    span context.  ``deadline`` (seconds) is typically
    :meth:`~repro.distrib.faults.FaultToleranceConfig.resolve_deadline`
    applied to the backtester's timed-baseline estimate.
    """
    spec = getattr(backtester.scenario, "spec", None)
    if spec is None:
        raise DistribError(
            "scenario has no ScenarioSpec; build it via "
            "repro.scenarios.build_scenario (or set scenario.spec) so "
            "spawn/remote workers can reconstruct it")
    config = BacktesterConfig(**{
        f.name: getattr(backtester, f.name)
        for f in dataclasses.fields(BacktesterConfig)})
    return encode(BacktestJob(
        spec=spec, config=config,
        abort=abort_policy if abort_policy is not None
        else backtester.abort_policy,
        deadline=None if deadline is None else float(deadline),
        telemetry=None if telemetry is None else telemetry.job_context(),
        candidates=tuple(candidates)))


def job_digest(job_wire: Dict) -> str:
    """Content digest of everything that defines a job's *runtime*.

    Candidates and the abort policy are excluded on purpose: the runtime
    cache serves any candidate list against the same scenario + backtester
    configuration, and the abort policy is a plain attribute the runtime
    re-points per job.
    """
    basis = json.dumps({"spec": job_wire["spec"],
                        "config": job_wire["config"]},
                       sort_keys=True, default=str)
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()


def strip_candidates(job_wire: Dict) -> Dict:
    """A job header: the candidates' count instead of their wires, which
    ride with the dispatched items."""
    header = {key: value for key, value in job_wire.items()
              if key != "candidates"}
    header["candidate_count"] = len(job_wire["candidates"])
    return header


class _RuntimeEntry:
    """One cached (scenario, backtester) pair; the backtester holds its
    baseline and shared trunk."""

    __slots__ = ("scenario", "backtester")

    def __init__(self, scenario, backtester):
        self.scenario = scenario
        self.backtester = backtester


class RuntimeCache:
    """Worker-side LRU cache of job runtimes, keyed by :func:`job_digest`.

    Closes the "remote workers rebuild the shared trunk once per job"
    cost: a repeated ``evaluate_all`` on the same scenario reuses the
    scenario object, the backtester (with its cached baseline) and the
    shared multiquery trunk.  ``hits``/``misses`` are
    exposed for tests and benchmarks.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, _RuntimeEntry]" = OrderedDict()

    def get(self, digest: str) -> Optional[_RuntimeEntry]:
        entry = self._entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        return entry

    def put(self, digest: str, entry: _RuntimeEntry) -> None:
        self._entries[digest] = entry
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


def build_runtime(job_wire: Dict, cache: Optional[RuntimeCache] = None):
    """Build the worker-side runtime for a job wire of any kind.

    Job wires are discriminated by their ``"kind"`` key: ``"repair"``
    builds a :class:`repro.service.runtime.RepairJobRuntime`, which runs
    a whole Diagnose → Generate → Backtest → Rank pipeline as one item.
    The service module is imported lazily — the api package imports this
    one, so a top-level import would cycle.  Any other wire is a
    :class:`BacktestJob` (``"backtest"``) or a :class:`JobWireError`.

    Every runtime exposes ``__len__`` and ``evaluate(index,
    candidate_wire=None)``; runtimes that stream events additionally
    expose ``set_event_sink``.
    """
    if isinstance(job_wire, dict) and job_wire.get("kind") == "repair":
        from ..service.runtime import RepairJobRuntime
        return RepairJobRuntime(job_wire, cache=cache)
    return JobRuntime(job_wire, cache=cache)


class JobRuntime:
    """Worker-side execution state for one job.

    Accepts a full job wire (embedded candidate list — the in-process
    transport and the serial drain) or a stripped header from
    :func:`strip_candidates`, in which case candidate wires arrive with
    each :meth:`evaluate` call.  With a :class:`RuntimeCache`, the
    scenario/backtester pair is shared across same-digest jobs.
    """

    def __init__(self, job_wire: Dict, cache: Optional[RuntimeCache] = None):
        job = BacktestJob.from_wire(job_wire)
        self.candidates: List[Optional[RepairCandidate]] = (
            [None] * job.candidate_count if job.candidates is None
            else list(job.candidates))
        digest = job_digest(job_wire) if cache is not None else None
        entry = cache.get(digest) if cache is not None else None
        if entry is None:
            scenario = job.spec.build()
            backtester = Backtester(scenario,
                                    **dataclasses.asdict(job.config))
            entry = _RuntimeEntry(scenario, backtester)
            if cache is not None:
                cache.put(digest, entry)
        self.scenario = entry.scenario
        self.backtester = entry.backtester
        #: The policy is per-job even when the runtime is cached.
        self.backtester.abort_policy = job.abort
        #: Worker-side telemetry, seeded from the coordinator's span
        #: context on the wire.  Per-job like the abort policy — and reset
        #: unconditionally so a cached runtime from a telemetry-enabled
        #: job never leaks spans into a disabled one.
        self.telemetry = (None if job.telemetry is None
                          else Telemetry.from_job_context(job.telemetry))
        self.backtester.telemetry = self.telemetry

    def __len__(self) -> int:
        return len(self.candidates)

    def evaluate(self, index: int,
                 candidate_wire: Optional[Dict] = None) -> Dict:
        """Evaluate candidate ``index``: its ``ShardOutcome`` wire."""
        candidate = self.candidates[index]
        if candidate is None:
            if candidate_wire is None:
                raise DistribError(
                    f"candidate {index} was not shipped with the job and no "
                    f"wire came with the item")
            candidate = candidate_from_wire(candidate_wire)
            self.candidates[index] = candidate
        telemetry = self.telemetry
        if telemetry is None:
            return encode(self.backtester.evaluate_outcome(candidate))
        # Deterministic cross-process span id: the coordinator's job span
        # (the wire context) is the parent, the item index disambiguates —
        # workers never need to coordinate id allocation.
        parent_id = telemetry.tracer.parent.span_id
        worker = str(os.getpid())
        started = _time.perf_counter()
        with telemetry.span("candidate", span_id=f"{parent_id}.c{index}",
                            index=index, worker_pid=os.getpid(),
                            description=(candidate.description or "")):
            outcome = self.backtester.evaluate_outcome(candidate)
        elapsed = _time.perf_counter() - started
        telemetry.metrics.counter("worker_items", worker=worker).inc()
        telemetry.metrics.histogram("worker_item_seconds",
                                    worker=worker).observe(elapsed)
        outcome.spans, outcome.metrics = telemetry.drain_remote()
        return encode(outcome)
