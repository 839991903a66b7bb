"""Declarative configuration for a full repair run.

:class:`RepairConfig` holds every knob — the explorer's candidate budget,
the backtester's replay and acceptance bounds, the transport, the
early-abort policy — in one :mod:`repro.wire` type.  With its
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

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..backtest.abort import EarlyAbortPolicy
from ..meta.costs import CostModel
from ..scenarios import check_spec
from ..scenarios.spec import ScenarioSpec, SpecError
from ..wire import Wire, WireError, decode_fields


class ConfigError(WireError):
    """Raised for malformed or inconsistent repair configurations."""


#: Knobs of mechanisms that are gone, which the benchmark ledger's ablation
#: rows still flip through :meth:`RepairConfig.with_updates`: accepted there
#: and dropped, so each such row reads the default configuration.  They are
#: no ``RepairConfig`` field, so a wire or a CLI flag naming one is refused.
#: ``warm_engine``: every candidate builds cold.  ``replay_batch_size``: a
#: trace replays through the one hop loop, with no bursts.  ``multiquery``:
#: every candidate replays the whole trace on its own network.
LEDGER_ONLY_KNOBS = ("warm_engine", "replay_batch_size", "multiquery")

#: The largest candidate budget a config may ask for (the ledger's
#: ``candidate_heavy`` asks for 100).
MAX_CANDIDATES_LIMIT = 1000

#: The keyword arguments of ``repro.distrib.Transport`` a config's
#: ``transport_options`` may set, with the exact JSON types each takes (a
#: ``fault_plan`` must decode as a ``FaultPlan``); anything else is a
#: :class:`ConfigError`, not a crash when the run starts.
TRANSPORT_OPTIONS = {"result_timeout": (int, float), "fault_plan": None}

#: The names a config's ``transport`` may hold (the CLI's ``--transport``
#: choices): ``repro.distrib.fleet_size`` maps each to a worker count.
TRANSPORTS = ("inprocess", "spawn", "socket")


def _check_positive(name: str, value) -> None:
    """A bound that is absent, or a finite number above 0."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"config {name} must be finite and > 0, "
                          f"not {value!r}")


@dataclass
class TelemetryConfig(Wire):
    """Knobs for the observability layer (:mod:`repro.obs`).

    ``RepairConfig.telemetry`` is ``None`` when telemetry is off — the
    default — so disabled runs construct nothing.
    """

    wire_name, wire_error = "telemetry", ConfigError
    decodes_own_fields = True

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

    def __post_init__(self):
        decode_fields(self)


@dataclass
class RepairConfig(Wire):
    """Every knob of the Diagnose → Generate → Backtest → Rank pipeline;
    a malformed wire, nested blocks included, is a :class:`ConfigError`."""

    wire_name, wire_error = "config", ConfigError
    decodes_own_fields = True

    #: The scenario to repair, as a spawn-safe declarative handle.  May be
    #: ``None`` when the session is given a live scenario object directly
    #: (then the config is not fully serializable).
    scenario: Optional[ScenarioSpec] = None

    # -- Generate: candidate exploration --------------------------------
    #: Stop exploring once this many candidates were extracted.
    max_candidates: int = 20

    # -- Backtest: replay and acceptance --------------------------------
    #: KS acceptance threshold; ``None`` uses the scenario's own.
    ks_threshold: Optional[float] = None
    #: Replay only this many trace packets (``None`` = whole trace).
    trace_limit: Optional[int] = None
    #: Reject repairs multiplying controller PacketIn load by more than
    #: this; an ``abort`` policy checks the same bound mid-trace.
    max_packet_in_growth: Optional[float] = None
    #: Statically vet candidates before replay; provably behaviour-
    #: preserving ones (inert inserts, no-op edits) skip backtesting and
    #: are reported rejected with a ``vetoed`` note.  On by default for the
    #: vet on/off rows of EXPERIMENTS.md "The backtest asks only for a
    #: veto": on wins ``trace_heavy`` (9/10 pairs) and ties
    #: ``candidate_heavy`` and ``program_heavy``.
    static_vet: bool = True
    #: Optional mid-trace check of ``max_packet_in_growth``, to stop a
    #: flooding candidate's replay early.
    abort: Optional[EarlyAbortPolicy] = None

    # -- Scheduling: where candidate evaluations run --------------------
    #: Worker count for candidate evaluation (1 = serial).
    workers: int = 1
    #: Distributed-fabric transport name (``"inprocess"``, ``"spawn"``,
    #: ``"socket"``); ``None`` runs serial or — ``workers > 1`` on a job
    #: worth a fleet (``PARALLEL_MIN_SECONDS``) — on a borrowed spawn fleet
    #: (:meth:`make_scheduler`).
    transport: Optional[str] = None
    #: Extra keyword arguments for the transport, among
    #: :data:`TRANSPORT_OPTIONS` (e.g. ``result_timeout``).  The fabric's
    #: retry, restart and deadline rule is no knob: it is the constants of
    #: :mod:`repro.distrib.faults`.
    transport_options: Dict[str, object] = field(default_factory=dict)

    # -- Observability ---------------------------------------------------
    #: Tracing/metrics/profiling knobs; ``None`` = telemetry off (the
    #: disabled path constructs nothing and costs nothing).
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self):
        # Construction, ``with_updates`` and the wire decode all land here.
        decode_fields(self)
        if self.scenario is not None:
            try:
                check_spec(self.scenario)
            except SpecError as exc:
                raise ConfigError(str(exc)) from exc
        counts = {name: getattr(self, name)
                  for name in ("max_candidates", "trace_limit", "workers")}
        if self.telemetry is not None:
            counts["telemetry.slice_packets"] = self.telemetry.slice_packets
        for name, value in counts.items():
            if value is not None and value < 1:
                raise ConfigError(f"config {name} must be >= 1, "
                                  f"not {value!r}")
        if self.max_candidates > MAX_CANDIDATES_LIMIT:
            raise ConfigError(f"config max_candidates must be <= "
                              f"{MAX_CANDIDATES_LIMIT}, "
                              f"not {self.max_candidates!r}")
        # Each bound is written as what a value must satisfy, so NaN fails.
        threshold = self.ks_threshold
        if threshold is not None and not 0 <= threshold <= 1:
            raise ConfigError(f"config ks_threshold must be within [0, 1], "
                              f"not {threshold!r}")
        _check_positive("max_packet_in_growth", self.max_packet_in_growth)
        if self.transport not in (None, *TRANSPORTS):
            raise ConfigError(f"config transport must be one of "
                              f"{list(TRANSPORTS)} or null, "
                              f"not {self.transport!r}")
        options = self.transport_options
        unknown = set(options).difference(TRANSPORT_OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config transport_options keys: "
                              f"{sorted(unknown, key=str)}")
        for key, kinds in TRANSPORT_OPTIONS.items():
            if kinds and key in options and type(options[key]) not in kinds:
                raise ConfigError(
                    f"config transport_options key {key!r} must be "
                    f"{' or '.join(kind.__name__ for kind in kinds)}, "
                    f"not {options[key]!r}")
        _check_positive("transport_options result_timeout",
                        options.get("result_timeout"))
        if options.get("fault_plan") is not None:
            # Only a run that arms one loads the fleet's fault module.
            from ..distrib.faults import FaultPlan
            try:
                FaultPlan.coerce(options["fault_plan"])
            except ValueError as exc:        # a WireError is a ValueError
                raise ConfigError(f"config transport_options 'fault_plan': "
                                  f"{exc}") from exc

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
        """The paper's cost model: no run tunes it."""
        return CostModel()

    def make_backtester(self, scenario):
        """The configured backtester (every replay knob)."""
        from ..backtest.replay import Backtester
        return Backtester(
            scenario,
            ks_threshold=self.ks_threshold,
            trace_limit=self.trace_limit,
            max_packet_in_growth=self.max_packet_in_growth,
            abort_policy=self.abort,
            static_vet=self.static_vet)

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
