"""The unified repair-pipeline API.

One import point for the redesigned end-to-end surface:

* :class:`RepairConfig` — every knob of a repair run in one declarative,
  JSON-round-trippable dataclass (:mod:`repro.api.config`);
* :class:`RepairSession` — the facade composing the pipeline stages
  Diagnose → Generate → Backtest → Rank with resumable artifacts
  (:mod:`repro.api.session`, :mod:`repro.api.stages`);
* the streaming event surface — :class:`EventBus` and the
  :class:`SessionEvent` hierarchy (re-exported from :mod:`repro.events`);
* :func:`repair` — the one-call convenience wrapper.

Start here::

    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    session = RepairSession(config)
    report = session.run()
"""

from .._lazy import lazy_exports
from ..events import (BacktestProgress, CandidateAborted, CandidateFound,
                      CandidateQuarantined, CandidateVetoed, EventBus,
                      FabricFaultStats, JsonlEventWriter, SessionEvent,
                      SessionFinished, SessionStarted, StageFinished,
                      StageStarted, WarmEngineStats)
from .config import ConfigError, RepairConfig, TelemetryConfig
from .session import DiagnosisReport, PhaseTimings, RepairSession, repair
from .stages import (DEFAULT_STAGES, BacktestStage, DiagnoseStage,
                     GenerateStage, RankStage, Stage, StageError)

# A fault plan is read by ``--fault-plan`` and the fleet only: a serial
# repair imports no ``repro.distrib`` module.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".distrib.faults": ("FaultPlan",),
})

__all__ = [
    "BacktestProgress", "BacktestStage", "CandidateAborted", "CandidateFound",
    "CandidateQuarantined", "CandidateVetoed", "ConfigError", "DEFAULT_STAGES",
    "DiagnoseStage", "DiagnosisReport", "EventBus", "FabricFaultStats",
    "FaultPlan", "GenerateStage", "JsonlEventWriter",
    "PhaseTimings", "RankStage", "RepairConfig", "RepairSession",
    "SessionEvent", "SessionFinished", "SessionStarted", "Stage",
    "StageError", "StageFinished", "StageStarted", "TelemetryConfig",
    "WarmEngineStats", "repair",
]
