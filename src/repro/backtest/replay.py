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

Scenarios (see :mod:`repro.scenarios.base`) provide the environment: a
topology factory, a controller factory for an arbitrary program, the
recorded trace and the effectiveness predicate.  The scenario builds its
topology once, as its *template*, and every replay — the baseline's, each
candidate's and Diagnose's recorded run — runs on a
:meth:`~repro.sdn.topology.Topology.replica` of it: hosts, links and
adjacency shared, switches and flow tables of its own (the template's
pre-installed entries copied in install order), so no replay writes the
template and a backtester reused across jobs or threads stays sound.  Every
candidate replays on a controller built for it alone: its engine runs the
scenario's static tuples to a fixpoint under the repaired program, then
takes the trace.

There is one backtester with one replay loop and one verdict function.
The loop hands the trace to the data plane's one walk
(:meth:`~repro.sdn.network.NetworkSimulator.run_trace`) whole, or — under
an early-abort policy — cut at the policy's check points, one call per
piece.  The worker fabric (:mod:`repro.distrib`) is the only way a
candidate evaluation leaves the calling process.

Equivalent candidates replay once.  After the vet, every surviving
candidate's patched program gets a closed-world key
(:class:`~repro.analysis.constprop.ClosedWorldKeys`): two programs with
equal keys derive the same control messages from every PacketIn of this
replay, so they replay identically, packet by packet.  The first candidate
of each key, in input order, is its class's *representative* and replays;
every other *member* is judged by its own :meth:`Backtester.verdict` over
the representative's statistics, and takes the note its representative's
evaluation appended — an abort (the abort depends only on the statistics'
prefix) or a fabric quarantine — as a flat rejection.  On the serial path a
representative replays the patched program the vet already applied;
:meth:`Backtester.evaluate_outcome`, a fabric worker's unit of work,
applies its candidate itself.
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bus import publish_progress
from ..repair.apply import (RepairApplicationError, RepairedProgram,
                            apply_candidate)
from ..repair.candidates import RepairCandidate
from ..sdn.network import NetworkSimulator, TrafficStats
from ..sdn.packets import HEADER_FIELDS, HEADER_POSITIONS
from ..sdn.topology import Topology
from ..wire import NOT_ON_WIRE
from .abort import EarlyAbortPolicy
from .metrics import KSResult, compare_traffic


#: Minimum estimated serial runtime (baseline replay seconds x replayed
#: candidates, one per replay class) below which a config with
#: ``workers > 1`` and no named transport runs serial anyway (a *gated*
#: scheduler, see :meth:`Backtester._run_candidates`): starting a worker
#: fleet (``distrib.fleet_start_s``) costs a few hundred milliseconds plus one
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
    #: Surviving candidates judged from their replay class representative's
    #: statistics instead of a replay of their own.
    shared_count: int = 0

    def sharing_ratio(self) -> float:
        """The share of the candidates that survived the vet which were
        judged from their class representative's replay (the benchmark
        ledger's ``backtest.sharing_ratio`` row): 0.0 when every survivor
        replayed."""
        survivors = len(self.results) - self.vetoed_count
        return self.shared_count / survivors if survivors else 0.0

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
    repaired program, built cold, once per replay class, and compare with
    the baseline.  ``evaluate_all(..., scheduler=...)`` keeps the procedure
    and moves the representatives' evaluations onto the worker fabric
    (:mod:`repro.distrib`).  Reports are bit-identical either way.
    """

    #: Read by the benchmark ledger's backtest probe (``backtest.warm_hits``
    #: and ``backtest.warm_fallbacks``): every replay builds cold, so both
    #: are 0; what a candidate saves by sharing its class's replay is
    #: :meth:`BacktestReport.sharing_ratio`.
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
        self._keys = None
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

    def _template(self) -> Topology:
        """The scenario's topology, built once
        (:meth:`~repro.scenarios.base.NDlogScenario.template`).  Replays
        run on replicas of it (:meth:`~repro.sdn.topology.Topology.replica`)
        and never write it; the keyer reads its switch ids."""
        return self.scenario.template()

    def _simulator(self, controller) -> NetworkSimulator:
        """A simulator for ``controller`` on a fresh replica of the
        template."""
        return NetworkSimulator(
            self._template().replica(), controller,
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
        """A ``(simulator, controller)`` to replay ``repaired`` on: a replica
        of the template topology — its switches and flow tables the
        replay's own, the template's entries copied in install order, its
        hosts and links shared — and a controller built cold for the
        repaired program and its inserted tuples."""
        controller = self.scenario.build_controller(
            program=repaired.program, extra_tuples=repaired.inserted_tuples)
        return self._simulator(controller), controller

    def evaluate(self, candidate: RepairCandidate) -> BacktestResult:
        return self.evaluate_outcome(candidate).result

    def evaluate_outcome(self, candidate: RepairCandidate) -> ShardOutcome:
        """Hermetic evaluation of one candidate, applied here: a fabric
        worker's unit of work, and the serial loop's for a candidate that
        no vet applied."""
        return self._evaluate_applied(
            candidate, apply_candidate(self.scenario.program, candidate))

    def _evaluate_applied(self, candidate: RepairCandidate,
                          repaired: RepairedProgram) -> ShardOutcome:
        """Replay ``repaired`` (``candidate`` applied) and judge it."""
        started = _time.perf_counter()
        simulator, controller = self._candidate_network(repaired)
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

    def _run_candidates(self, survivors, classes: List[int], scheduler,
                        events) -> List[ShardOutcome]:
        """Evaluate the surviving ``(candidate, applied candidate)`` pairs
        serially or through ``scheduler`` (a
        :class:`repro.distrib.Scheduler`), in input order, publishing each
        finished one on ``events``.

        ``classes[i]`` is the index of candidate ``i``'s representative
        (:meth:`_classes`): only representatives replay, and each member
        is judged from its representative's outcome (:meth:`_shared`).
        Serially a representative replays its applied candidate; one that
        did not apply goes through :meth:`evaluate_outcome`, which fails
        as it always did.  The fleet ships candidates, and each worker
        applies its own.  Every candidate gets one ``BacktestProgress`` out
        of ``len(survivors)``: serially in input order, on the fleet a
        representative's as it completes, then its members'.

        The min-work gate is decided here, once: a *gated* scheduler
        (``workers > 1`` with no named transport) runs the job only when
        there are several representatives, the scenario carries a
        :class:`~repro.scenarios.spec.ScenarioSpec` (fabric workers
        rebuild the scenario from it; a live scenario object without one
        cannot leave the process) and the job is estimated at
        :data:`PARALLEL_MIN_SECONDS` or more of serial replay (the timed
        baseline replay times the representative count, since every
        replay walks the same trace); otherwise the serial loop runs.
        Every path returns bit-identical outcomes.
        """
        candidates = [candidate for candidate, _repaired in survivors]
        total = len(candidates)
        outcomes: List[Optional[ShardOutcome]] = [None] * total
        representatives = [index for index, representative
                           in enumerate(classes) if representative == index]
        done = 0

        def finish(index: int, outcome: ShardOutcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if events is not None:
                publish_progress(events, done, total, outcome.result)

        if scheduler is not None and (not scheduler.gated or (
                len(representatives) > 1
                and getattr(self.scenario, "spec", None) is not None
                and (self._baseline_seconds or 0.0) * len(representatives)
                >= PARALLEL_MIN_SECONDS)):
            members: Dict[int, List[int]] = {}
            for index, representative in enumerate(classes):
                if representative != index:
                    members.setdefault(representative, []).append(index)

            def delivered(position: int, outcome: ShardOutcome) -> None:
                index = representatives[position]
                finish(index, outcome)
                for member in members.get(index, ()):
                    finish(member, self._shared(candidates[member], member,
                                                outcome))

            scheduler.run(self, [candidates[index]
                                 for index in representatives],
                          delivered, events)
            return outcomes
        for index, (candidate, repaired) in enumerate(survivors):
            representative = classes[index]
            if representative != index:
                finish(index, self._shared(candidate, index,
                                           outcomes[representative]))
                continue
            with self._span("candidate", index=index, tag=candidate.tag,
                            description=candidate.description):
                finish(index, self.evaluate_outcome(candidate)
                       if repaired is None
                       else self._evaluate_applied(candidate, repaired))
        return outcomes

    def _shared(self, candidate: RepairCandidate, index: int,
                representative: ShardOutcome) -> ShardOutcome:
        """``candidate``'s outcome judged from its class representative's:
        its own verdict over the representative's statistics, with the
        note (abort or quarantine) the representative's evaluation
        appended, as a flat rejection.  With telemetry on it has a
        ``candidate`` span naming its representative, and no replay."""
        started = _time.perf_counter()
        replayed = representative.result
        with self._span("candidate", index=index, tag=candidate.tag,
                        description=candidate.description,
                        representative=replayed.candidate.tag):
            appended = replayed.notes[len(replayed.candidate.notes):]
            note = appended[-1] if appended else None
            result = self.verdict(candidate, replayed.stats, note=note,
                                  judge=note is None)
        result.elapsed_seconds = _time.perf_counter() - started
        return ShardOutcome(result=result)

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
        """Vet all candidates; returns (survivors, index -> vetoed result),
        each survivor a ``(candidate, applied candidate)`` pair.  The vet
        applies each candidate (:meth:`CandidateVetter.decide`); without
        the vet each is applied here, and one that does not apply survives
        with ``None`` (its replay fails as it always did).

        A vetoed candidate gets the result its replay *would* have
        produced.  Inert-insert and no-op vetoes are behaviour-preservation
        proofs: the patched run is bit-identical to the baseline, so the
        baseline statistics are judged exactly as a replay's would be.
        Candidates vetoed because their edits do not apply have no
        replay and are reported flatly rejected.
        """
        if not self.static_vet:
            return [(candidate, self._applied(candidate))
                    for candidate in candidates], {}
        vetter = self._candidate_vetter()
        survivors: List[Tuple[RepairCandidate, RepairedProgram]] = []
        vetoed: Dict[int, BacktestResult] = {}
        for index, candidate in enumerate(candidates):
            started = _time.perf_counter()
            decision = vetter.decide(candidate)
            reason = decision.reason
            if reason is not None:
                vetoed[index] = self.verdict(
                    candidate, self.baseline(),
                    note=f"vetoed by static analysis: {reason}",
                    judge=reason != "apply-failed")
                vetoed[index].elapsed_seconds = \
                    _time.perf_counter() - started
                self.vetoed += 1
            else:
                survivors.append((candidate, decision.repaired))
        return survivors, vetoed

    def _applied(self, candidate: RepairCandidate
                 ) -> Optional[RepairedProgram]:
        """``candidate`` applied to the scenario's program, or ``None``
        when its edits do not apply."""
        try:
            return apply_candidate(self.scenario.program, candidate)
        except RepairApplicationError:
            return None

    # ------------------------------------------------------------------
    # Replay classes (parent-side, after the vet)
    # ------------------------------------------------------------------

    def _replay_keys(self):
        """The closed-world keyer of this backtester's replays, built once.

        Its domain (:class:`~repro.analysis.constprop.ClosedWorldKeys`):
        the PacketIn switch column ranges over the template's switch ids,
        each column that is a packet header field over that field's values
        in this backtester's cut of the trace; the controller column and
        ``in_port`` have none.
        """
        if self._keys is None:
            from ..analysis.constprop import ClosedWorldKeys
            mapping = getattr(self.scenario, "mapping", None)
            if mapping is None:
                self._keys = ClosedWorldKeys(None)
            else:
                headers = [packet.header_values
                           for _switch, packet in self._trace()]
                self._keys = ClosedWorldKeys(mapping.packet_in_table, (
                    None, self._template().switches,
                    *({values[HEADER_POSITIONS[name]] for values in headers}
                      if name in HEADER_FIELDS else None
                      for name in mapping.packet_in_fields)))
        return self._keys

    def _classes(self, survivors) -> List[int]:
        """For each surviving ``(candidate, applied candidate)``, the index
        of its replay class's representative: the first survivor whose
        patched program has the same closed-world key.  A candidate that
        does not apply is its own class."""
        keys = self._replay_keys()
        first: Dict[tuple, int] = {}
        classes: List[int] = []
        for index, (_candidate, repaired) in enumerate(survivors):
            if repaired is None:
                classes.append(index)
                continue
            key = keys.key(repaired.program, repaired.inserted_tuples)
            classes.append(first.setdefault(key, index))
        return classes

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
        classes = self._classes(survivors)
        outcomes = self._run_candidates(survivors, classes, scheduler, events)
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
        report.shared_count = sum(1 for index, representative
                                  in enumerate(classes)
                                  if representative != index)
        report.quarantined_count = sum(
            1 for result in report.results
            if any(str(note).startswith("quarantined(")
                   for note in result.notes))
        report.elapsed_seconds = _time.perf_counter() - started
        return report
