"""The pipeline stages: Diagnose → Generate → Backtest → Rank.

Each :class:`Stage` is a small, pluggable unit with declared inputs
(:attr:`Stage.requires`) and one named output (:attr:`Stage.provides`).
Stages read and write the session's artifact store, so intermediate
results — the history index, the exploration, the backtest report — are
first-class: a session can stop after any stage, be inspected, and resume
where it left off; a custom pipeline can replace any stage (the policy-DSL
example substitutes its own Generate/Backtest stages while keeping the
session shell, event stream and CLI rendering).

The four standard stages (the :class:`~repro.api.session.PhaseTimings`
field each one fills is in brackets):

* :class:`DiagnoseStage` — replay the recorded trace once under the buggy
  program and the runtime recorder; index what it recorded for the explorer
  and keep its traffic statistics as the backtest baseline
  (``history_lookups``).
* :class:`GenerateStage` — explore the meta provenance forest and extract
  repair candidates in cost order (``constraint_solving`` +
  ``patch_generation``).
* :class:`BacktestStage` — evaluate every candidate against the recorded
  traffic, locally or through the distributed fabric, judged against
  Diagnose's baseline (``replay``).
* :class:`RankStage` — order the survivors by complexity.
"""

from __future__ import annotations

from typing import Tuple

from ..backtest.ranking import rank_results
from ..events import CandidateFound, CandidateVetoed, WarmEngineStats
from ..meta.explorer import MetaProvenanceExplorer


class StageError(RuntimeError):
    """Raised when a stage cannot run (missing inputs, bad wiring)."""


class Stage:
    """One pluggable pipeline step.

    Subclasses set :attr:`name` (the event-stream / CLI label),
    :attr:`provides` (the artifact key they fill) and :attr:`requires`
    (artifact keys that must exist before :meth:`run`), and implement
    :meth:`run`, returning the artifact value.
    """

    name: str = "stage"
    provides: str = "artifact"
    requires: Tuple[str, ...] = ()

    def run(self, session):
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name!r}>"


class DiagnoseStage(Stage):
    """Replay the buggy program over the (trace-limited) trace once, under
    the runtime recorder.

    The artifact is the history index the explorer searches.  The same run
    is the backtest baseline — its traffic statistics and replay seconds —
    so the session keeps it (:attr:`RepairSession.recorded_run`) for
    :class:`BacktestStage`, which then replays no baseline of its own.
    Nothing else of the run is kept: no packet log; the engine keeps no
    history of its own.
    """

    name = "diagnose"
    provides = "history"

    def run(self, session):
        run = session.scenario.recorded_run(
            trace_limit=session.config.trace_limit)
        session.recorded_run = run
        return run.history


class GenerateStage(Stage):
    """Explore meta provenance and extract candidates in cost order."""

    name = "generate"
    provides = "exploration"
    requires = ("history",)

    def run(self, session):
        scenario = session.scenario
        explorer = MetaProvenanceExplorer(
            scenario.program, session.artifacts["history"],
            cost_model=session.cost_model,
            max_candidates=session.config.max_candidates)
        exploration = explorer.explore_missing(scenario.goal())
        total = len(exploration.candidates)
        for index, candidate in enumerate(exploration.candidates, 1):
            session.events.emit(CandidateFound(
                index=index, total=total, tag=candidate.tag,
                description=candidate.description, cost=candidate.cost))
        return exploration


class BacktestStage(Stage):
    """Replay every candidate against the recorded traffic."""

    name = "backtest"
    provides = "backtest"
    requires = ("exploration",)

    def run(self, session):
        """Backtest serially, or on the fleet the config's scheduler
        borrows for this stage: closing the scheduler parks the fleet for
        the process's next session of the same shape, and the fleet is
        closed at interpreter exit."""
        from ..ndlog.plan import PLAN_CACHE

        config = session.config
        telemetry = session.telemetry
        backtester = config.make_backtester(session.scenario)
        backtester.telemetry = telemetry
        # Diagnose's run is the baseline when it produced the session's
        # history over the same cut; without it (a custom pipeline, a
        # hand-filled history) the backtester replays its own.
        recorded = session.recorded_run
        if (recorded is not None
                and recorded.history is session.artifacts.get("history")
                and recorded.trace_limit == config.trace_limit):
            backtester.use_baseline(recorded.baseline, recorded.seconds)
        session.backtester = backtester
        candidates = session.artifacts["exploration"].candidates
        scheduler = config.make_scheduler(telemetry=telemetry)
        plan_cache_before = PLAN_CACHE.stats()
        try:
            report = backtester.evaluate_all(candidates, scheduler=scheduler,
                                             events=session.events)
        finally:
            if scheduler is not None:
                scheduler.close()
        for result in report.results:
            note = next((str(n) for n in result.notes
                         if str(n).startswith("vetoed by static analysis")),
                        None)
            if note is not None:
                reason = note.rsplit(": ", 1)[-1]
                session.events.emit(CandidateVetoed(
                    description=(result.candidate.description
                                 if result.candidate else ""),
                    reason=reason, note=note))
        plan_cache_after = PLAN_CACHE.stats()
        plan_hits = plan_cache_after["hits"] - plan_cache_before["hits"]
        plan_misses = (plan_cache_after["misses"]
                       - plan_cache_before["misses"])
        if backtester.vetoed or plan_hits or plan_misses:
            session.events.emit(WarmEngineStats(
                vetoed=backtester.vetoed,
                plan_cache_hits=plan_hits,
                plan_cache_misses=plan_misses))
        if telemetry is not None:
            self._record_metrics(telemetry, backtester, report,
                                 plan_hits, plan_misses)
        return report

    @staticmethod
    def _record_metrics(telemetry, backtester, report, plan_hits,
                        plan_misses) -> None:
        """Consolidate the stage's scattered counters into the registry.

        These are the ad-hoc numbers that used to live only on backtester
        attributes and the WarmEngineStats event; with telemetry on they
        become first-class metrics (``repro stats``, Prometheus dump).
        """
        metrics = telemetry.metrics
        metrics.counter("plan_cache_hits").inc(plan_hits)
        metrics.counter("plan_cache_misses").inc(plan_misses)
        metrics.counter("candidates_vetoed").inc(backtester.vetoed)
        metrics.counter("candidates_backtested").inc(len(report.results))
        metrics.gauge("backtest_packet_count").set(report.packet_count)
        if report.elapsed_seconds:
            metrics.gauge("packets_replayed_per_second").set(
                report.packet_count * max(1, len(report.results))
                / report.elapsed_seconds)


class RankStage(Stage):
    """Order accepted repairs by complexity (what the operator sees)."""

    name = "rank"
    provides = "suggestions"
    requires = ("backtest",)

    def run(self, session):
        return rank_results(session.artifacts["backtest"].results,
                            accepted_only=True)


#: The standard pipeline, in order.
DEFAULT_STAGES: Tuple[Stage, ...] = (
    DiagnoseStage(), GenerateStage(), BacktestStage(), RankStage())
