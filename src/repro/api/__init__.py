"""The unified repair-pipeline API.

One import point for the redesigned end-to-end surface:

* :class:`RepairConfig` — every knob of a repair run in one declarative,
  JSON-round-trippable dataclass (:mod:`repro.api.config`);
* :class:`RepairSession` — the one entry point: it runs the paper's four
  steps Diagnose → Generate → Backtest → Rank (:data:`STEPS`), and
  ``run(until=...)`` stops after one of them and resumes
  (:mod:`repro.api.session`);
* the streaming event surface — :class:`EventBus` (:mod:`repro.bus`) and
  the :class:`SessionEvent` hierarchy (:mod:`repro.events`, loaded on first
  use).

Start here::

    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    session = RepairSession(config)
    report = session.run()
"""

from .._lazy import lazy_exports
from ..bus import EventBus
from .config import ConfigError, RepairConfig, TelemetryConfig
from .session import STEPS, DiagnosisReport, PhaseTimings, RepairSession

# The event classes load with the first event a listening bus is handed
# (a quiet CLI repair builds none), and a fault plan is read by
# ``--fault-plan`` and the fleet only: a serial repair imports no
# ``repro.distrib`` module.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("BacktestProgress", "CandidateAborted", "CandidateFound",
                "CandidateQuarantined", "CandidateVetoed",
                "FabricFaultStats", "JsonlEventWriter", "SessionEvent",
                "SessionFinished", "SessionStarted", "StageFinished",
                "StageStarted", "WarmEngineStats"),
    ".distrib.faults": ("FaultPlan",),
})

__all__ = [
    "BacktestProgress", "CandidateAborted", "CandidateFound",
    "CandidateQuarantined", "CandidateVetoed", "ConfigError",
    "DiagnosisReport", "EventBus", "FabricFaultStats", "FaultPlan",
    "JsonlEventWriter", "PhaseTimings", "RepairConfig", "RepairSession",
    "STEPS", "SessionEvent", "SessionFinished", "SessionStarted",
    "StageFinished", "StageStarted", "TelemetryConfig", "WarmEngineStats",
]
