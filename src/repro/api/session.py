"""The :class:`RepairSession` facade: one object, the whole repair pipeline.

A session binds a declarative :class:`~repro.api.config.RepairConfig` to
the paper's four steps (§4, Fig 9a; :data:`STEPS`) and an
:class:`~repro.events.EventBus`.  Each step fills one attribute of the
session: ``diagnose`` the :attr:`~RepairSession.history` (its replay is
also the backtest baseline), ``generate`` the
:attr:`~RepairSession.exploration`, ``backtest`` the
:attr:`~RepairSession.backtest` and ``rank`` the
:attr:`~RepairSession.suggestions`.  Running it produces a
:class:`DiagnosisReport` — candidates, verdicts and KS statistics that are
a pure function of (config, scenario).  While the run is in flight, step
boundaries, extracted candidates, per-candidate backtest verdicts and
static-analysis statistics are published on ``session.events`` — built
only while the bus is :attr:`~repro.bus.EventBus.listening`, so a bus
without subscribers or history costs no event;
``session.run(until="generate")`` stops after a step, and a later
``session.run()`` resumes after it instead of recomputing.

Quickstart::

    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    report = RepairSession(config).run()
    print(report.summary())
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..backtest.ranking import rank_results
from ..backtest.replay import BacktestReport, BacktestResult
from ..bus import EventBus
from ..meta.explorer import ExplorationResult, MetaProvenanceExplorer
from ..repair.candidates import RepairCandidate
from .config import RepairConfig

#: The steps of a session, in order: the names ``run(until=)`` takes, and
#: the ``stage`` of their events, ``stage.<name>`` spans and
#: ``stage_seconds`` keys.
STEPS = ("diagnose", "generate", "backtest", "rank")


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (the Figure 9a breakdown)."""

    history_lookups: float = 0.0
    constraint_solving: float = 0.0
    patch_generation: float = 0.0
    replay: float = 0.0

    @property
    def total(self) -> float:
        return (self.history_lookups + self.constraint_solving
                + self.patch_generation + self.replay)

    def as_dict(self):
        return {
            "history_lookups": self.history_lookups,
            "constraint_solving": self.constraint_solving,
            "patch_generation": self.patch_generation,
            "replay": self.replay,
            "total": self.total,
        }


@dataclass
class DiagnosisReport:
    """Everything one repair run produces for a diagnostic query."""

    scenario_name: str
    symptom: str
    exploration: ExplorationResult
    backtest: BacktestReport
    timings: PhaseTimings
    #: Rank's list: the accepted repairs in complexity order.
    ranked: List[BacktestResult]

    @property
    def candidates(self) -> List[RepairCandidate]:
        return self.exploration.candidates

    def suggestions(self) -> List[BacktestResult]:
        """Accepted repairs, in complexity order (what the operator sees)."""
        return list(self.ranked)

    def counts(self):
        """(candidates generated, candidates surviving backtest) — Table 1."""
        return len(self.backtest.results), len(self.ranked)

    def summary(self) -> str:
        generated, surviving = self.counts()
        lines = [
            f"Scenario {self.scenario_name}: {self.symptom}",
            f"  generated {generated} repair candidates, "
            f"{surviving} survived backtesting",
            f"  turnaround: {self.timings.total:.2f}s "
            f"(history {self.timings.history_lookups:.2f}s, "
            f"solving {self.timings.constraint_solving:.2f}s, "
            f"patches {self.timings.patch_generation:.2f}s, "
            f"replay {self.timings.replay:.2f}s)",
        ]
        for result in self.ranked:
            lines.append(f"    suggested: {result.candidate.description} "
                         f"(KS {result.ks.statistic:.5f})")
        return "\n".join(lines)

    def to_wire(self) -> Dict[str, object]:
        """JSON-able view of the run (what ``repro repair --json`` prints)."""
        return {
            "scenario": self.scenario_name,
            "symptom": self.symptom,
            "generated": len(self.backtest.results),
            "surviving": len(self.ranked),
            "timings": self.timings.as_dict(),
            "packet_count": self.backtest.packet_count,
            "results": [
                {
                    "tag": result.candidate.tag,
                    "description": result.candidate.description,
                    "cost": result.candidate.cost,
                    "ks_statistic": result.ks.statistic,
                    "effective": result.effective,
                    "accepted": result.accepted,
                    "notes": list(result.notes),
                }
                for result in self.backtest.results
            ],
            "suggestions": [result.candidate.description
                            for result in self.ranked],
        }


class RepairSession:
    """Runs the four steps of a configured repair, one after another.

    ``scenario`` may be passed explicitly for scenarios that are not in
    the registry (then the config's spec is optional).
    """

    def __init__(self, config: Optional[RepairConfig] = None,
                 scenario=None,
                 events: Optional[EventBus] = None):
        self.config = config or RepairConfig()
        self.events = events if events is not None else EventBus()
        self._scenario = scenario
        #: Live telemetry bundle (``None`` when the config's ``telemetry``
        #: knob is off — the entire observability layer then costs nothing).
        self.telemetry = self.config.make_telemetry()
        if self.telemetry is not None:
            # Trace/span ids ride every event; sink failures land in the
            # session's metric registry.
            self.events.stamp = self.telemetry.stamp_event
            self.events.metrics = self.telemetry.metrics
        #: Wall-clock seconds per completed step, by step name.
        self.stage_seconds: Dict[str, float] = {}
        #: Diagnose's one replay of the buggy program
        #: (:class:`~repro.scenarios.base.RecordedRun`): the run behind
        #: :attr:`history`, and the backtest's baseline.
        self.recorded_run = None
        #: Diagnose: the history index the explorer searches.
        self.history = None
        #: Generate: the :class:`ExplorationResult`, candidates in cost order.
        self.exploration: Optional[ExplorationResult] = None
        #: The backtester Backtest built (for its statistics).
        self.backtester = None
        #: Backtest: the :class:`BacktestReport`, one result per candidate.
        self.backtest: Optional[BacktestReport] = None
        #: Rank: the accepted results in complexity order.
        self.suggestions: Optional[List[BacktestResult]] = None

    @classmethod
    def from_wire(cls, wire: Dict[str, object],
                  events: Optional[EventBus] = None) -> "RepairSession":
        """A session from a ``RepairConfig`` wire dict.

        The construction path of the repair service: an HTTP body or a
        coordinator frame carries the config wire, and this turns it
        straight into a runnable session.  Raises
        :class:`~repro.api.config.ConfigError` on malformed wires.
        """
        return cls(RepairConfig.from_wire(wire), events=events)

    @property
    def scenario(self):
        if self._scenario is None:
            self._scenario = self.config.build_scenario()
        return self._scenario

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: Optional[str] = None) -> Optional[DiagnosisReport]:
        """Run the steps up to ``until`` (default: all), skipping those
        already done.

        Returns the :class:`DiagnosisReport` once Rank has run, else
        ``None``; the steps' outputs are on the session's attributes.
        """
        if until is None:
            until = STEPS[-1]
        elif until not in STEPS:
            raise ValueError(f"no step named {until!r}; the steps are "
                             f"{', '.join(STEPS)}")
        pending = [name for name in STEPS[:STEPS.index(until) + 1]
                   if name not in self.stage_seconds]
        if not pending:
            return self.report()
        started = _time.perf_counter()
        session_span = None
        if self.telemetry is not None:
            session_span = self.telemetry.span(
                "session", scenario=self._scenario_name())
        try:
            # Builds the scenario, if need be, before the first step's clock.
            symptom = self._symptom()
            if self.events.listening:
                from ..events import SessionStarted
                self.events.emit(SessionStarted(
                    scenario=self._scenario_name(), symptom=symptom,
                    stages=tuple(pending)))
            for name in pending:
                self._run_step(name)
        finally:
            if session_span is not None:
                session_span.finish()
        report = self.report()
        if report is not None and self.events.listening:
            from ..events import SessionFinished
            generated, surviving = report.counts()
            self.events.emit(SessionFinished(
                scenario=report.scenario_name, generated=generated,
                surviving=surviving,
                elapsed_seconds=_time.perf_counter() - started))
        return report

    def _run_step(self, name: str) -> None:
        """Run one step under its events, span, profile and timing."""
        span = profiler = None
        if self.telemetry is not None:
            span = self.telemetry.span(f"stage.{name}", stage=name)
            if self.telemetry.profile:
                from ..obs import StageProfiler
                profiler = StageProfiler().__enter__()
        if self.events.listening:
            from ..events import StageStarted
            self.events.emit(StageStarted(stage=name))
        started = _time.perf_counter()
        try:
            getattr(self, f"_{name}")()
        finally:
            elapsed = _time.perf_counter() - started
            if profiler is not None:
                profiler.__exit__(None, None, None)
                self.telemetry.profiles[name] = profiler.text
            if span is not None:
                span.finish()
                self.telemetry.metrics.histogram(
                    "stage_seconds", stage=name).observe(elapsed)
        self.stage_seconds[name] = elapsed
        if self.events.listening:
            from ..events import StageFinished
            self.events.emit(StageFinished(stage=name,
                                           elapsed_seconds=elapsed))

    def _diagnose(self) -> None:
        """Replay the buggy program over the (trace-limited) trace once,
        under the runtime recorder: what it recorded is the history, and
        the run — its traffic statistics and replay seconds — is the
        backtest baseline.  Nothing else of the run is kept."""
        run = self.scenario.recorded_run(trace_limit=self.config.trace_limit)
        self.recorded_run = run
        self.history = run.history

    def _generate(self) -> None:
        """Explore meta provenance and extract candidates in cost order."""
        explorer = MetaProvenanceExplorer(
            self.scenario.program, self.history,
            cost_model=self.config.cost_model(),
            max_candidates=self.config.max_candidates)
        exploration = explorer.explore_missing(self.scenario.goal())
        if self.events.listening:
            from ..events import CandidateFound
            total = len(exploration.candidates)
            for index, candidate in enumerate(exploration.candidates, 1):
                self.events.emit(CandidateFound(
                    index=index, total=total, tag=candidate.tag,
                    description=candidate.description, cost=candidate.cost))
        self.exploration = exploration

    def _backtest(self) -> None:
        """Replay every candidate against the recorded traffic, serially or
        on the fleet the config's scheduler borrows for this step: closing
        the scheduler parks the fleet for the process's next session of the
        same shape, and the fleet is closed at interpreter exit."""
        from ..ndlog.plan import PLAN_CACHE

        config, telemetry, events = self.config, self.telemetry, self.events
        backtester = config.make_backtester(self.scenario)
        backtester.telemetry = telemetry
        backtester.use_baseline(self.recorded_run.baseline,
                                self.recorded_run.seconds)
        self.backtester = backtester
        scheduler = config.make_scheduler(telemetry=telemetry)
        plan_cache_before = PLAN_CACHE.stats()
        try:
            report = backtester.evaluate_all(self.exploration.candidates,
                                             scheduler=scheduler,
                                             events=events)
        finally:
            if scheduler is not None:
                scheduler.close()
        plan_cache_after = PLAN_CACHE.stats()
        plan_hits = plan_cache_after["hits"] - plan_cache_before["hits"]
        plan_misses = (plan_cache_after["misses"]
                       - plan_cache_before["misses"])
        if events.listening:
            from ..events import CandidateVetoed, WarmEngineStats
            for result in report.results:
                note = next((str(n) for n in result.notes
                             if str(n).startswith("vetoed by static "
                                                  "analysis")), None)
                if note is not None:
                    events.emit(CandidateVetoed(
                        description=(result.candidate.description
                                     if result.candidate else ""),
                        reason=note.rsplit(": ", 1)[-1], note=note))
            if backtester.vetoed or plan_hits or plan_misses:
                events.emit(WarmEngineStats(
                    vetoed=backtester.vetoed,
                    plan_cache_hits=plan_hits,
                    plan_cache_misses=plan_misses))
        if telemetry is not None:
            # The backtester's counters, as registry metrics (``repro
            # stats``, the Prometheus dump).
            metrics = telemetry.metrics
            metrics.counter("plan_cache_hits").inc(plan_hits)
            metrics.counter("plan_cache_misses").inc(plan_misses)
            metrics.counter("candidates_vetoed").inc(backtester.vetoed)
            metrics.counter("candidates_backtested").inc(len(report.results))
            metrics.gauge("backtest_packet_count").set(report.packet_count)
            metrics.gauge("backtest_sharing_ratio").set(
                report.sharing_ratio())
            if report.elapsed_seconds:
                metrics.gauge("packets_replayed_per_second").set(
                    report.packet_count * max(1, len(report.results))
                    / report.elapsed_seconds)
        self.backtest = report

    def _rank(self) -> None:
        """Order the accepted repairs by complexity (what the operator
        sees)."""
        self.suggestions = rank_results(self.backtest.results,
                                        accepted_only=True)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def timings(self) -> PhaseTimings:
        """Map step timings onto the paper's Figure 9a phase breakdown."""
        timings = PhaseTimings()
        timings.history_lookups = self.stage_seconds.get("diagnose", 0.0)
        generation = self.stage_seconds.get("generate", 0.0)
        solver_seconds = (self.exploration.stats.solver_seconds
                          if self.exploration is not None else 0.0)
        timings.constraint_solving = min(generation, solver_seconds)
        timings.patch_generation = max(0.0,
                                       generation - timings.constraint_solving)
        timings.replay = self.stage_seconds.get("backtest", 0.0)
        return timings

    def report(self) -> Optional[DiagnosisReport]:
        """The report, or ``None`` until Rank has run."""
        if self.suggestions is None:
            return None
        return DiagnosisReport(
            scenario_name=self._scenario_name(),
            symptom=self._symptom(),
            exploration=self.exploration,
            backtest=self.backtest,
            timings=self.timings(),
            ranked=self.suggestions)

    def _scenario_name(self) -> str:
        if self._scenario is not None or self.config.scenario is None:
            return getattr(self.scenario, "name", "?")
        return self.config.scenario.name

    def _symptom(self) -> str:
        symptom = getattr(self.scenario, "symptom", None)
        return getattr(symptom, "description", "") if symptom else ""
