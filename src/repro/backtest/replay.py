"""Backtesting repair candidates by replaying historical traffic.

The :class:`Backtester` judges each repaired program's replay of the
recorded trace against the baseline traffic distribution — the *original*
(buggy) program's replay of the same trace, which a session's Diagnose stage
has already run and hands over, and which a backtester on its own replays
once.  A candidate is

* **effective** if it fixes the symptom (the scenario's effectiveness
  predicate holds, e.g. "the backup web server receives at least some HTTP
  traffic"), and
* **accepted** if it is effective *and* does not distort the traffic
  distribution of unrelated flows (the two-sample KS statistic stays within
  the scenario's ``ks_threshold``, Section 5.3) or, under a
  ``max_packet_in_growth`` bound, the controller's load.

Scenarios (see :mod:`repro.scenarios.base`) provide the environment: a fresh
topology, a controller factory for an arbitrary program, the recorded trace
and the effectiveness predicate.  Every candidate replays on a topology and
a controller built for it alone: its engine runs the scenario's static
tuples to a fixpoint under the repaired program, then takes the trace.

There is one backtester with one replay loop and one verdict function.
The loop hands the trace to the data plane's one walk
(:meth:`~repro.sdn.network.NetworkSimulator.run_trace`) whole, or — under
an early-abort policy — cut at the policy's check points, one call per
piece.  The worker fabric (:mod:`repro.distrib`) is the only way a
candidate evaluation leaves the calling process.
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..events import publish_progress
from ..repair.apply import RepairedProgram, apply_candidate
from ..repair.candidates import RepairCandidate
from ..sdn.network import NetworkSimulator, TrafficStats
from ..wire import NOT_ON_WIRE
from .abort import EarlyAbortPolicy
from .metrics import KSResult, compare_traffic


#: Minimum estimated serial runtime (baseline replay seconds x surviving
#: candidate count) below which a config with ``workers > 1`` and no named
#: transport runs serial anyway (a *gated* scheduler, see
#: :meth:`Backtester._run_candidates`): starting a worker fleet
#: (``distrib.fleet_start_s``) costs a few hundred milliseconds plus one
#: scenario rebuild per worker, so tiny jobs run *slower*
#: parallel — the Fig 9b crossover.  The baseline seconds are the wall time
#: of the one replay of the buggy program: in a session, Diagnose's recorded
#: run (the replay alone, not the history index built after it), handed over
#: with its statistics; otherwise the backtester's own
#: :meth:`Backtester.baseline`.  Only the first job of a process pays the
#: fleet's start: later jobs of the same worker count borrow the fleet the
#: last one parked (``Scheduler.borrow``).  A named transport bypasses the
#: gate.  One value is in use, hence a constant; the tests that push
#: smoke-sized jobs through a gated scheduler patch it to 0.
PARALLEL_MIN_SECONDS = 1.0


@dataclass
class ShardOutcome:
    """What one candidate's evaluation sends back: a :mod:`repro.wire` type."""

    result: "BacktestResult"
    #: Telemetry piggyback: span wire dicts finished in the worker during
    #: this evaluation plus a metrics-registry delta.  Empty/None when
    #: telemetry is off or the evaluation ran in the parent process.
    spans: List[dict] = field(default_factory=list)
    metrics: Optional[dict] = None


@dataclass
class BacktestResult:
    """Outcome of backtesting a single repair candidate."""

    candidate: RepairCandidate = field(metadata=NOT_ON_WIRE)
    stats: TrafficStats
    ks: KSResult
    effective: bool
    accepted: bool
    elapsed_seconds: float = 0.0
    notes: Tuple[str, ...] = ()

    def __str__(self):
        verdict = "PASS" if self.accepted else "FAIL"
        return (f"{self.candidate.description} ({verdict})  "
                f"KS={self.ks.statistic:.5f}")


@dataclass
class BacktestReport:
    """Results for a whole candidate list."""

    baseline: TrafficStats
    results: List[BacktestResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Number of trace packets each candidate was evaluated against.
    packet_count: int = 0
    #: Candidates rejected by static vetting before any replay ran; their
    #: results are still in :attr:`results` (marked by a ``vetoed`` note),
    #: so ``len(results)`` always equals the candidate count.
    vetoed_count: int = 0
    #: Candidates the fabric gave up on after exhausting their retry
    #: budget; like vetoes, their (deterministic, rejected) results stay
    #: in :attr:`results`, marked by a ``quarantined(<reason>)`` note.
    quarantined_count: int = 0

    def sharing_ratio(self) -> float:
        """Read by the benchmark ledger's backtest probe: every candidate
        replays on its own, so no decision is shared."""
        return 0.0

    def accepted(self) -> List[BacktestResult]:
        return [r for r in self.results if r.accepted]

    def effective(self) -> List[BacktestResult]:
        return [r for r in self.results if r.effective]

    def counts(self) -> Tuple[int, int]:
        """(candidates generated, candidates surviving backtest) — Table 1."""
        return len(self.results), len(self.accepted())


class Backtester:
    """Backtests repair candidates against a scenario.

    One procedure (Sections 4.3-4.4): replay the recorded trace under each
    repaired program, built cold, and compare with the baseline.
    ``evaluate_all(..., scheduler=...)`` keeps the procedure and moves the
    per-candidate evaluations onto the worker fabric (:mod:`repro.distrib`).
    Reports are bit-identical either way.
    """

    #: Read by the benchmark ledger's backtest probe (``backtest.warm_hits``
    #: and ``backtest.warm_fallbacks``): every candidate builds cold, so
    #: both are 0.
    warm_hits = 0
    warm_fallbacks = 0

    def __init__(self, scenario, ks_threshold: Optional[float] = None,
                 trace_limit: Optional[int] = None,
                 max_packet_in_growth: Optional[float] = None,
                 abort_policy: Optional[EarlyAbortPolicy] = None,
                 static_vet: bool = True):
        self.scenario = scenario
        #: Reject a repair whose KS statistic against the baseline exceeds
        #: this; ``None`` means the scenario's own threshold.
        self.ks_threshold = (scenario.ks_threshold if ks_threshold is None
                             else ks_threshold)
        self.trace_limit = trace_limit
        #: Optional extra side-effect metric: reject repairs that multiply the
        #: controller's PacketIn load by more than this factor (the paper
        #: rejects some Q4 candidates for "significant increases of controller
        #: traffic").
        self.max_packet_in_growth = max_packet_in_growth
        #: Optional mid-trace check of that same bound, to stop a flooding
        #: candidate's replay early; see
        #: :class:`repro.backtest.abort.EarlyAbortPolicy`.  ``None`` (the
        #: default) replays every candidate to completion.
        self.abort_policy = abort_policy
        #: Vet each candidate with the static analyzer before replaying it;
        #: provably behaviour-preserving candidates (inert inserts, no-op
        #: edits) skip their replay entirely and are reported rejected with
        #: a ``vetoed`` note (see :class:`repro.analysis.vet.CandidateVetter`).
        self.static_vet = static_vet
        self._vetter = None
        self._baseline_seconds: Optional[float] = None
        #: Candidates vetoed without any replay.
        self.vetoed = 0
        self._baseline: Optional[TrafficStats] = None
        #: Live :class:`repro.obs.Telemetry` bundle, attached by the
        #: session stage or a distrib job runtime.  ``None`` (the default)
        #: keeps every replay path span-free and cost-free — this is a
        #: runtime object and deliberately not a constructor knob, so it
        #: never crosses the job wire inside backtester config fields.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def _trace(self):
        trace = self.scenario.trace()
        if self.trace_limit is not None:
            return trace[: self.trace_limit]
        return trace

    def _simulator(self, topology, controller) -> NetworkSimulator:
        return NetworkSimulator(
            topology, controller,
            require_packet_out=self.scenario.require_packet_out,
            record_ingress=False)

    def baseline(self) -> TrafficStats:
        """Traffic distribution of the original (buggy) program.

        A session's backtester is handed it (:meth:`use_baseline`): Diagnose
        already replayed the buggy program over the same cut of the trace.
        A backtester that was not — ``repro backtest``, a fabric worker's
        runtime, a custom pipeline — replays its own here, once.  The replay's
        wall time doubles as the per-candidate cost estimate for the parallel
        min-work threshold and the fabric's item deadline: every candidate
        replays the same trace.
        """
        if self._baseline is None:
            started = _time.perf_counter()
            simulator = self._simulator(
                self.scenario.build_topology(),
                self.scenario.build_controller(program=None))
            simulator.run_trace(self._trace())
            self._baseline = simulator.stats
            self._baseline_seconds = _time.perf_counter() - started
        return self._baseline

    def use_baseline(self, stats: TrafficStats, seconds: float) -> None:
        """Judge against ``stats`` instead of replaying a baseline: a replay
        of the buggy program over this backtester's cut of the trace that
        the caller already ran, which took ``seconds``."""
        self._baseline = stats
        self._baseline_seconds = seconds

    def _span(self, name: str, **attrs):
        """A telemetry span, or a no-op context when telemetry is off."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.span(name, **attrs)

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def _candidate_network(self, repaired: RepairedProgram):
        """A fresh ``(topology, controller)`` to replay ``repaired`` on."""
        return (self.scenario.build_topology(),
                self.scenario.build_controller(
                    program=repaired.program,
                    extra_tuples=repaired.inserted_tuples))

    def evaluate(self, candidate: RepairCandidate) -> BacktestResult:
        return self.evaluate_outcome(candidate).result

    def evaluate_outcome(self, candidate: RepairCandidate) -> ShardOutcome:
        """Hermetic evaluation of one candidate: the unit of work of the
        serial loop and of every fabric worker alike."""
        started = _time.perf_counter()
        repaired = apply_candidate(self.scenario.program, candidate)
        topology, controller = self._candidate_network(repaired)
        simulator = self._simulator(topology, controller)
        abort_note = self._replay(simulator,
                                  getattr(controller, "engine", None))
        result = self.verdict(candidate, simulator.stats, note=abort_note,
                              judge=abort_note is None)
        result.elapsed_seconds = _time.perf_counter() - started
        if self.telemetry is not None:
            self.telemetry.metrics.histogram(
                "candidate_replay_seconds").observe(result.elapsed_seconds)
        return ShardOutcome(result=result)

    @staticmethod
    def _engine_counters(engine) -> Optional[Dict[str, int]]:
        """Sample the replay engine's monotone telemetry counters."""
        if engine is None or not hasattr(engine, "telemetry_counters"):
            return None
        return engine.telemetry_counters()

    def _span_engine_delta(self, span, before, after,
                           record_metrics: bool = False) -> None:
        if before is None or after is None:
            return
        for key, value in after.items():
            delta = value - before.get(key, 0)
            span.set(key, delta)
            if record_metrics and delta:
                self.telemetry.metrics.counter(key).inc(delta)

    def _replay(self, simulator, engine) -> Optional[str]:
        """Replay the trace through ``simulator``; the abort note, or ``None``.

        With telemetry on, every replay — whole or aborted — runs under one
        ``replay`` span carrying the engine's fixpoint/derivation counter
        deltas and the number of packets actually replayed (the prefix
        length when aborted), which also feeds the ``packets_replayed``
        counter.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return self._replay_chunks(simulator, engine)[1]
        with telemetry.span("replay") as span:
            if telemetry.trace_fixpoints and hasattr(engine, "tracer"):
                engine.tracer = telemetry.tracer
            before = self._engine_counters(engine)
            done, abort_note = self._replay_chunks(simulator, engine)
            self._span_engine_delta(span, before,
                                    self._engine_counters(engine),
                                    record_metrics=True)
            span.set("packets", done)
            telemetry.metrics.counter("packets_replayed").inc(done)
        return abort_note

    def _replay_chunks(self, simulator, engine) -> Tuple[int, Optional[str]]:
        """The one replay loop: ``(packets replayed, abort note or None)``.

        The trace replays in chunks, one ``run_trace`` call each.  By
        default the chunk is the whole trace.  Under an abort policy the
        trace is cut at the policy's check points
        (:meth:`EarlyAbortPolicy.check_points`), and the policy's checks run
        at every cut: a chunk that ends before the trace does ends on a
        check point.  With telemetry's ``slice_packets`` (and no abort
        policy, whose cadence must not depend on a telemetry knob) each
        chunk is a slice under its own ``replay.slice`` span.  Chunked
        ``run_trace`` is the same execution as the one-shot call, so
        statistics are bit-identical whatever the chunking.
        """
        trace = self._trace()
        total = len(trace)
        policy = self.abort_policy
        slice_packets = None
        if policy is not None:
            cuts = policy.check_points(total)
        else:
            if self.telemetry is not None:
                slice_packets = self.telemetry.slice_packets
            cuts = range(slice_packets, total, slice_packets) \
                if slice_packets else ()
        done = 0
        for cut in (*cuts, total):
            piece = trace[done:cut] if cuts else trace
            if slice_packets:
                with self.telemetry.span("replay.slice", offset=done,
                                         packets=len(piece)) as slice_span:
                    before = self._engine_counters(engine)
                    simulator.run_trace(piece)
                    self._span_engine_delta(slice_span, before,
                                            self._engine_counters(engine))
            else:
                simulator.run_trace(piece)
            done = cut
            if policy is not None and done < total:
                reason = self._overload(simulator.stats)
                if reason is not None:
                    return done, (f"aborted after {done}/{total} packets: "
                                  f"{reason}")
        return done, None

    def verdict(self, candidate: RepairCandidate, stats: TrafficStats,
                note: Optional[str] = None,
                judge: bool = True) -> BacktestResult:
        """The one place ``effective`` and ``accepted`` are decided.

        ``stats`` are judged against the baseline: effective if the
        scenario's predicate holds, accepted if also neither the traffic
        distribution (KS) nor the controller load is distorted.
        ``judge=False`` reports a flat rejection instead — for statistics
        that do not describe a complete replay of the candidate (aborted
        prefixes, candidates that cannot be evaluated, quarantined items);
        ``note`` says why and is appended to the candidate's notes.
        """
        ks = compare_traffic(self.baseline(), stats)
        effective = judge and bool(self.scenario.is_effective(stats))
        accepted = (effective and ks.statistic <= self.ks_threshold
                    and (self.max_packet_in_growth is None
                         or self._overload(stats) is None))
        notes = candidate.notes if note is None else candidate.notes + (note,)
        return BacktestResult(candidate=candidate, stats=stats, ks=ks,
                              effective=effective, accepted=accepted,
                              notes=notes)

    def _overload(self, stats: TrafficStats) -> Optional[str]:
        """Why ``stats`` overload the controller, or ``None``: more
        PacketIns than the baseline's (at least 1) times
        ``max_packet_in_growth``.  The verdict rejects a full replay on it
        and an abort policy stops a replay early on it; the count only
        grows, so such an abort is the verdict's rejection, reached
        sooner."""
        growth = self.max_packet_in_growth
        if growth is None:
            return None
        bound = max(1, self.baseline().packet_in_count) * growth
        if stats.packet_in_count > bound:
            return (f"controller overload: {stats.packet_in_count} "
                    f"PacketIns > {bound:.0f} allowed")
        return None

    def _run_candidates(self, candidates: List[RepairCandidate], scheduler,
                        events) -> List[ShardOutcome]:
        """Evaluate candidates serially or through ``scheduler`` (a
        :class:`repro.distrib.Scheduler`), in input order, publishing each
        finished one on ``events``.

        The min-work gate is decided here, once: a *gated* scheduler
        (``workers > 1`` with no named transport) runs the job only when
        there are several candidates, the scenario carries a
        :class:`~repro.scenarios.spec.ScenarioSpec` (fabric workers
        rebuild the scenario from it; a live scenario object without one
        cannot leave the process) and the job is estimated at
        :data:`PARALLEL_MIN_SECONDS` or more of serial replay (the timed
        baseline replay times the candidate count, since every candidate
        replays the same trace); otherwise the serial loop runs.  Every
        path returns bit-identical outcomes.
        """
        if scheduler is not None and (not scheduler.gated or (
                len(candidates) > 1
                and getattr(self.scenario, "spec", None) is not None
                and (self._baseline_seconds or 0.0) * len(candidates)
                >= PARALLEL_MIN_SECONDS)):
            return scheduler.run(self, candidates, events)
        outcomes = []
        for done, candidate in enumerate(candidates, 1):
            with self._span("candidate", index=done - 1, tag=candidate.tag,
                            description=candidate.description):
                outcome = self.evaluate_outcome(candidate)
            outcomes.append(outcome)
            if events is not None:
                publish_progress(events, done, len(candidates),
                                 outcome.result)
        return outcomes

    def _absorb_outcomes(self, outcomes) -> None:
        """Stitch telemetry piggybacked on fabric workers' outcomes into
        this process's bundle; clear it so a re-absorb (e.g. a cached
        outcome) cannot double-count."""
        if self.telemetry is None:
            return
        for outcome in outcomes:
            if outcome.spans or outcome.metrics:
                self.telemetry.absorb(outcome.spans, outcome.metrics)
                outcome.spans, outcome.metrics = [], None

    # ------------------------------------------------------------------
    # Static vetting (parent-side, before any replay)
    # ------------------------------------------------------------------

    def _candidate_vetter(self):
        if self._vetter is None:
            from ..analysis.vet import CandidateVetter
            scenario = self.scenario
            mapping = getattr(scenario, "mapping", None)
            schemas = {schema.name: schema for schema in scenario.schemas()}
            self._vetter = CandidateVetter(
                scenario.program, schemas=schemas,
                static_tuples=list(scenario.static_tuples),
                event_tables=({mapping.packet_in_table}
                              if mapping is not None else ()),
                flow_table=(mapping.flow_table
                            if mapping is not None else None))
        return self._vetter

    def _prefilter(self, candidates: Sequence[RepairCandidate]):
        """Vet all candidates; returns (survivors, index -> vetoed result).

        A vetoed candidate gets the result its replay *would* have
        produced.  Inert-insert and no-op vetoes are behaviour-preservation
        proofs: the patched run is bit-identical to the baseline, so the
        baseline statistics are judged exactly as a replay's would be.
        Candidates vetoed because their edits do not apply have no
        replay and are reported flatly rejected.
        """
        if not self.static_vet:
            return list(candidates), {}
        vetter = self._candidate_vetter()
        survivors: List[RepairCandidate] = []
        vetoed: Dict[int, BacktestResult] = {}
        for index, candidate in enumerate(candidates):
            started = _time.perf_counter()
            reason = vetter.veto(candidate)
            if reason is not None:
                vetoed[index] = self.verdict(
                    candidate, self.baseline(),
                    note=f"vetoed by static analysis: {reason}",
                    judge=reason != "apply-failed")
                vetoed[index].elapsed_seconds = \
                    _time.perf_counter() - started
                self.vetoed += 1
            else:
                survivors.append(candidate)
        return survivors, vetoed

    def evaluate_all(self, candidates: Sequence[RepairCandidate],
                     scheduler=None, events=None) -> BacktestReport:
        """Backtest ``candidates`` into a report in input order: serially,
        or on ``scheduler`` — the backtester's only fabric hook.  Progress
        is published on ``events``, else on the scheduler's own bus."""
        if events is None and scheduler is not None:
            events = scheduler.events
        started = _time.perf_counter()
        report = BacktestReport(baseline=self.baseline(),
                                packet_count=len(self._trace()))
        all_candidates = list(candidates)
        survivors, vetoed = self._prefilter(all_candidates)
        outcomes = self._run_candidates(survivors, scheduler, events)
        self._absorb_outcomes(outcomes)
        # Interleave replayed and vetoed results back into input order.
        replayed = iter(outcomes)
        for index in range(len(all_candidates)):
            if index in vetoed:
                report.results.append(vetoed[index])
                continue
            outcome = next(replayed)
            report.results.append(outcome.result)
        report.vetoed_count = len(vetoed)
        report.quarantined_count = sum(
            1 for result in report.results
            if any(str(note).startswith("quarantined(")
                   for note in result.notes))
        report.elapsed_seconds = _time.perf_counter() - started
        return report
