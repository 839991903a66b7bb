"""The :class:`RepairSession` facade: one object, the whole repair pipeline.

A session binds a declarative :class:`~repro.api.config.RepairConfig` to a
stage pipeline (default: Diagnose → Generate → Backtest → Rank) and an
:class:`~repro.events.EventBus`.  Running it produces a
:class:`DiagnosisReport` — candidates, verdicts and KS statistics that are
a pure function of (config, scenario) — and exposes the steps on the way:

* **resumable artifacts** — ``session.run(until="generate")`` stops after
  candidate extraction; the partial results sit in ``session.artifacts``
  and a later ``session.run()`` picks up where it stopped instead of
  recomputing;
* **streaming events** — stage boundaries, extracted candidates, per-
  candidate backtest verdicts and static-analysis statistics are published on
  ``session.events`` while the run is in flight;
* **declarative scheduling** — the backtester, worker count, transport and
  abort policy all flow from the config, so the identical session
  description runs serially or on a worker fleet.

Quickstart::

    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    report = RepairSession(config).run()
    print(report.summary())
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..backtest.ranking import rank_results
from ..backtest.replay import BacktestReport, BacktestResult
from ..events import (EventBus, SessionFinished, SessionStarted,
                      StageFinished, StageStarted)
from ..meta.explorer import ExplorationResult
from ..repair.candidates import RepairCandidate
from .config import RepairConfig
from .stages import DEFAULT_STAGES, Stage, StageError


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

    @property
    def candidates(self) -> List[RepairCandidate]:
        return self.exploration.candidates

    def suggestions(self) -> List[BacktestResult]:
        """Accepted repairs, in complexity order (what the operator sees)."""
        return rank_results(self.backtest.results, accepted_only=True)

    def counts(self):
        """(candidates generated, candidates surviving backtest) — Table 1."""
        return len(self.backtest.results), len(self.suggestions())

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
        for result in self.suggestions():
            lines.append(f"    suggested: {result.candidate.description} "
                         f"(KS {result.ks.statistic:.5f})")
        return "\n".join(lines)

    def to_wire(self) -> Dict[str, object]:
        """JSON-able view of the run (what ``repro repair --json`` prints)."""
        return {
            "scenario": self.scenario_name,
            "symptom": self.symptom,
            "generated": len(self.backtest.results),
            "surviving": len(self.suggestions()),
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
                            for result in self.suggestions()],
        }


class RepairSession:
    """Runs a configured repair pipeline, stage by stage.

    ``scenario`` may be passed explicitly for scenarios that are not in
    the registry (then the config's spec is optional).  ``stages``
    replaces the standard pipeline with a custom one.
    """

    def __init__(self, config: Optional[RepairConfig] = None,
                 scenario=None,
                 events: Optional[EventBus] = None,
                 stages: Optional[Sequence[Stage]] = None):
        self.config = config or RepairConfig()
        self.events = events if events is not None else EventBus()
        self.stages: List[Stage] = list(stages
                                        if stages is not None else DEFAULT_STAGES)
        self._scenario = scenario
        #: Live telemetry bundle (``None`` when the config's ``telemetry``
        #: knob is off — the entire observability layer then costs nothing).
        self.telemetry = self.config.make_telemetry()
        if self.telemetry is not None:
            # Trace/span ids ride every event; sink failures land in the
            # session's metric registry.
            self.events.stamp = self.telemetry.stamp_event
            self.events.metrics = self.telemetry.metrics
        #: Intermediate results, keyed by each stage's ``provides`` name.
        self.artifacts: Dict[str, object] = {}
        #: Wall-clock seconds per completed stage, by stage name.
        self.stage_seconds: Dict[str, float] = {}
        #: The backtester built by the backtest stage (for its statistics).
        self.backtester = None
        #: Diagnose's one replay of the buggy program
        #: (:class:`~repro.scenarios.base.RecordedRun`): the run behind the
        #: ``history`` artifact, and the backtest's baseline.
        self.recorded_run = None

    @classmethod
    def from_wire(cls, wire: Dict[str, object],
                  events: Optional[EventBus] = None,
                  stages: Optional[Sequence[Stage]] = None) -> "RepairSession":
        """A session from a ``RepairConfig`` wire dict.

        The construction path of the repair service: an HTTP body or a
        coordinator frame carries the config wire, and this turns it
        straight into a runnable session.  Raises
        :class:`~repro.api.config.ConfigError` on malformed wires.
        """
        return cls(RepairConfig.from_wire(wire), events=events,
                   stages=stages)

    # ------------------------------------------------------------------
    # Lazy runtime pieces
    # ------------------------------------------------------------------

    @property
    def scenario(self):
        if self._scenario is None:
            self._scenario = self.config.build_scenario()
        return self._scenario

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise StageError(f"no stage named {name!r}; have "
                         f"{[s.name for s in self.stages]}")

    def completed(self, stage: Stage) -> bool:
        return stage.provides in self.artifacts

    def run_stage(self, stage: Stage):
        """Run one stage (its inputs must exist) and store its artifact."""
        missing = [key for key in stage.requires if key not in self.artifacts]
        if missing:
            raise StageError(f"stage {stage.name!r} requires artifacts "
                             f"{missing}; run the earlier stages first")
        span = profiler = None
        if self.telemetry is not None:
            span = self.telemetry.span(f"stage.{stage.name}",
                                       stage=stage.name)
            if self.telemetry.profile:
                from ..obs import StageProfiler
                profiler = StageProfiler().__enter__()
        self.events.emit(StageStarted(stage=stage.name))
        started = _time.perf_counter()
        try:
            artifact = stage.run(self)
        finally:
            elapsed = _time.perf_counter() - started
            if profiler is not None:
                profiler.__exit__(None, None, None)
                self.telemetry.profiles[stage.name] = profiler.text
            if span is not None:
                span.finish()
                self.telemetry.metrics.histogram(
                    "stage_seconds", stage=stage.name).observe(elapsed)
        self.artifacts[stage.provides] = artifact
        self.stage_seconds[stage.name] = elapsed
        self.events.emit(StageFinished(stage=stage.name,
                                       elapsed_seconds=elapsed))
        return artifact

    def run(self, until: Optional[str] = None) -> Optional[DiagnosisReport]:
        """Run the pipeline (resuming after completed stages).

        ``until`` names the last stage to run — later stages stay pending
        and their artifacts absent.  Returns the :class:`DiagnosisReport`
        once the standard artifacts exist, else ``None`` (partial runs and
        custom pipelines; the artifacts are on :attr:`artifacts`).
        """
        stages = self.stages
        if until is not None:
            self.stage(until)         # reject unknown names loudly
            cutoff = next(i for i, stage in enumerate(stages)
                          if stage.name == until)
            stages = stages[:cutoff + 1]
        pending = [stage for stage in stages if not self.completed(stage)]
        started = _time.perf_counter()
        session_span = None
        if pending and self.telemetry is not None:
            session_span = self.telemetry.span(
                "session", scenario=self._scenario_name())
        try:
            if pending:
                self.events.emit(SessionStarted(
                    scenario=self._scenario_name(),
                    symptom=self._symptom(),
                    stages=tuple(stage.name for stage in pending)))
            for stage in pending:
                self.run_stage(stage)
        finally:
            if session_span is not None:
                session_span.finish()
        report = self.report()
        if pending and report is not None and (until is None
                                               or until == self.stages[-1].name):
            generated, surviving = report.counts()
            self.events.emit(SessionFinished(
                scenario=report.scenario_name, generated=generated,
                surviving=surviving,
                elapsed_seconds=_time.perf_counter() - started))
        return report

    def reset(self, from_stage: Optional[str] = None) -> None:
        """Drop artifacts so stages re-run — all, or from one stage on."""
        if from_stage is not None:
            self.stage(from_stage)    # reject unknown names loudly
        dropping = False if from_stage is not None else True
        for stage in self.stages:
            if from_stage is not None and stage.name == from_stage:
                dropping = True
            if dropping:
                self.artifacts.pop(stage.provides, None)
                self.stage_seconds.pop(stage.name, None)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def timings(self) -> PhaseTimings:
        """Map stage timings onto the paper's Figure 9a phase breakdown."""
        timings = PhaseTimings()
        timings.history_lookups = self.stage_seconds.get("diagnose", 0.0)
        generation = self.stage_seconds.get("generate", 0.0)
        exploration = self.artifacts.get("exploration")
        solver_seconds = (exploration.stats.solver_seconds
                          if exploration is not None else 0.0)
        timings.constraint_solving = min(generation, solver_seconds)
        timings.patch_generation = max(0.0,
                                       generation - timings.constraint_solving)
        timings.replay = self.stage_seconds.get("backtest", 0.0)
        return timings

    def report(self) -> Optional[DiagnosisReport]:
        """The standard report, or ``None`` until its artifacts exist."""
        exploration = self.artifacts.get("exploration")
        backtest = self.artifacts.get("backtest")
        if exploration is None or backtest is None:
            return None
        return DiagnosisReport(
            scenario_name=self._scenario_name(),
            symptom=self._symptom(),
            exploration=exploration,
            backtest=backtest,
            timings=self.timings())

    def _scenario_name(self) -> str:
        if self._scenario is not None or self.config.scenario is None:
            return getattr(self.scenario, "name", "?")
        return self.config.scenario.name

    def _symptom(self) -> str:
        symptom = getattr(self.scenario, "symptom", None)
        return getattr(symptom, "description", "") if symptom else ""


def repair(scenario_name: str, events: Optional[EventBus] = None,
           **knobs) -> DiagnosisReport:
    """One-call convenience: ``repair("Q1", max_candidates=14)``."""
    config = RepairConfig.for_scenario(scenario_name, **knobs)
    return RepairSession(config, events=events).run()
