"""Declarative configuration for a full repair run.

:class:`RepairConfig` holds every knob — the explorer's candidate budget and
cost model, the backtester's replay and KS acceptance parameters, the
transport, the early-abort policy — in one :mod:`repro.wire` type.  With its
:class:`~repro.scenarios.spec.ScenarioSpec` it is a complete description of
a repair run: it configures an in-process session, is saved as a file for
``python -m repro repair --config``, or is dispatched to a worker.

The config is *declarative*: it holds names and numbers, never live
objects.  Factory methods (:meth:`RepairConfig.build_scenario`,
:meth:`cost_model`, :meth:`make_backtester`, :meth:`make_scheduler`)
construct the runtime pieces, so construction logic lives in one place
instead of being hand-wired at every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..backtest.abort import EarlyAbortPolicy
from ..distrib.faults import FaultToleranceConfig
from ..meta.costs import CostModel
from ..scenarios.spec import ScenarioSpec
from ..wire import Wire, WireError


class ConfigError(WireError):
    """Raised for malformed or inconsistent repair configurations."""


#: Knobs of mechanisms that are gone, which the benchmark ledger's ablation
#: rows still flip through :meth:`RepairConfig.with_updates`: accepted there
#: and dropped, so each such row reads the default configuration.  They are
#: no ``RepairConfig`` field, so a wire or a CLI flag naming one is refused.
#: ``warm_engine``: every candidate builds cold.
LEDGER_ONLY_KNOBS = ("warm_engine",)


@dataclass
class TelemetryConfig(Wire):
    """Knobs for the observability layer (:mod:`repro.obs`).

    ``RepairConfig.telemetry`` is ``None`` when telemetry is off — the
    default — so disabled runs construct nothing.
    """

    wire_name, wire_error = "telemetry", ConfigError

    #: Master switch; ``TelemetryConfig()`` alone means "on".
    enabled: bool = True
    #: Emit a ``replay.slice`` span every N packets during candidate
    #: replays (``None`` = no slice spans, just per-candidate replay spans).
    slice_packets: Optional[int] = None
    #: Capture a cProfile per pipeline stage (pstats text tables on
    #: ``telemetry.profiles``).
    profile: bool = False
    #: Attach the tracer to replay engines so every PacketIn fixpoint gets
    #: its own span (``engine.fixpoint``) — verbose; for deep dives only.
    trace_fixpoints: bool = False


@dataclass
class RepairConfig(Wire):
    """Every knob of the Diagnose → Generate → Backtest → Rank pipeline;
    a malformed wire, nested blocks included, is a :class:`ConfigError`."""

    wire_name, wire_error = "config", ConfigError

    #: The scenario to repair, as a spawn-safe declarative handle.  May be
    #: ``None`` when the session is given a live scenario object directly
    #: (then the config is not fully serializable).
    scenario: Optional[ScenarioSpec] = None

    # -- Generate: candidate exploration --------------------------------
    #: Stop exploring once this many candidates were extracted.
    max_candidates: int = 20
    #: Per-edit-kind cost overrides (merged over the paper's defaults).
    cost_overrides: Dict[str, float] = field(default_factory=dict)
    #: Candidate cost cutoff; ``None`` keeps the cost model's default.
    cost_cutoff: Optional[float] = None
    #: Surcharge for far-away constant changes; ``None`` keeps the default.
    far_constant_surcharge: Optional[float] = None

    # -- Backtest: replay and acceptance --------------------------------
    #: Share the base program's replay between candidates (Section 4.4).
    multiquery: bool = False
    #: KS acceptance threshold; ``None`` uses the scenario's own default.
    ks_threshold: Optional[float] = None
    #: Significance level when ``use_significance`` is on.
    alpha: float = 0.05
    #: Accept by KS significance test instead of the fixed threshold.
    use_significance: bool = False
    #: Replay only this many trace packets (``None`` = whole trace).
    trace_limit: Optional[int] = None
    #: Reject repairs multiplying controller PacketIn load by more than this.
    max_packet_in_growth: Optional[float] = None
    #: Replay the trace in bursts of this size where statically safe.
    replay_batch_size: Optional[int] = None
    #: Statically vet candidates before replay; provably behaviour-
    #: preserving ones (inert inserts, no-op edits) skip backtesting and
    #: are reported rejected with a ``vetoed`` note.  On by default for the
    #: vet on/off rows of EXPERIMENTS.md "The backtest asks only for a
    #: veto": on wins ``trace_heavy`` (9/10 pairs) and ties
    #: ``candidate_heavy`` and ``program_heavy``.
    static_vet: bool = True
    #: Optional mid-trace kill switch for hopeless candidates.
    abort: Optional[EarlyAbortPolicy] = None

    # -- Scheduling: where candidate evaluations run --------------------
    #: Worker count for candidate evaluation (1 = serial).
    workers: int = 1
    #: Distributed-fabric transport name (``"inprocess"``, ``"spawn"``,
    #: ``"socket"``); ``None`` runs serial or — ``workers > 1`` on a job
    #: worth a fleet (``PARALLEL_MIN_SECONDS``) — on a borrowed spawn fleet
    #: (:meth:`make_scheduler`).
    transport: Optional[str] = None
    #: Extra keyword arguments for the transport (e.g. socket ``port``).
    transport_options: Dict[str, object] = field(default_factory=dict)
    #: Fabric fault-tolerance policy (retry budget, worker restart budget,
    #: per-item deadlines, degradation floor); ``None`` = the defaults in
    #: :class:`repro.distrib.FaultToleranceConfig`, which keep fault-free
    #: runs bit-identical to a fabric without fault tolerance.
    fault_tolerance: Optional[FaultToleranceConfig] = None

    # -- Observability ---------------------------------------------------
    #: Tracing/metrics/profiling knobs; ``None`` = telemetry off (the
    #: disabled path constructs nothing and costs nothing).
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self):
        # Construction, ``with_updates`` and the wire decode all land here.
        for name in ("max_candidates", "trace_limit", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"config {name} must be >= 1, "
                                  f"not {value!r}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_scenario(cls, name: str, params: Optional[Dict[str, object]] = None,
                     **knobs) -> "RepairConfig":
        """Config for a registered scenario: ``RepairConfig.for_scenario("Q1")``."""
        return cls(scenario=ScenarioSpec.create(name, params=params), **knobs)

    def with_updates(self, **knobs) -> "RepairConfig":
        """A copy with some knobs replaced (configs are cheap values).

        A name in :data:`LEDGER_ONLY_KNOBS` is accepted and dropped."""
        for name in LEDGER_ONLY_KNOBS:
            knobs.pop(name, None)
        return replace(self, **knobs)

    # ------------------------------------------------------------------
    # Factories: the one place runtime pieces are wired from knobs
    # ------------------------------------------------------------------

    def build_scenario(self):
        if self.scenario is None:
            raise ConfigError("config has no ScenarioSpec; pass a scenario "
                              "object to RepairSession or set config.scenario")
        return self.scenario.build()

    def cost_model(self) -> CostModel:
        model = CostModel()
        if self.cost_overrides:
            model.costs.update(self.cost_overrides)
        if self.cost_cutoff is not None:
            model.cutoff = self.cost_cutoff
        if self.far_constant_surcharge is not None:
            model.far_constant_surcharge = self.far_constant_surcharge
        return model

    def resolve_ks_threshold(self, scenario) -> float:
        if self.ks_threshold is not None:
            return self.ks_threshold
        return getattr(scenario, "ks_threshold", 0.05)

    def make_backtester(self, scenario):
        """The configured backtester (every replay knob)."""
        from ..backtest.replay import Backtester
        return Backtester(
            scenario,
            ks_threshold=self.resolve_ks_threshold(scenario),
            alpha=self.alpha,
            use_significance=self.use_significance,
            trace_limit=self.trace_limit,
            max_packet_in_growth=self.max_packet_in_growth,
            replay_batch_size=self.replay_batch_size,
            abort_policy=self.abort,
            static_vet=self.static_vet,
            multiquery=self.multiquery)

    def make_scheduler(self, events=None, telemetry=None):
        """The configured distributed scheduler, or ``None`` for serial runs.

        The single construction path from declarative knobs to a
        :class:`repro.distrib.Scheduler`: a named ``transport`` or
        ``workers > 1`` gets one.  The scheduler borrows the process's idle
        fleet of this shape, if any, and ``close()`` parks it again
        (``Scheduler.borrow``).  Without a named transport it is *gated*:
        the backtester still runs a job too small for a fleet serially.
        """
        if self.transport is None and self.workers <= 1:
            return None
        from ..distrib.coordinator import Scheduler
        return Scheduler.from_config(self, events=events, telemetry=telemetry)

    def make_telemetry(self):
        """A live :class:`repro.obs.Telemetry` bundle, or ``None`` when the
        ``telemetry`` knob is absent or disabled."""
        if self.telemetry is None or not self.telemetry.enabled:
            return None
        from ..obs import Telemetry
        return Telemetry(slice_packets=self.telemetry.slice_packets,
                         profile=self.telemetry.profile,
                         trace_fixpoints=self.telemetry.trace_fixpoints)
