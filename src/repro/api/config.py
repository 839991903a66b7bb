"""Declarative configuration for a full repair run.

:class:`RepairConfig` absorbs every knob that used to be scattered across
constructors — the debugger's candidate budget and cost model, the
backtesters' ``workers``/``replay_batch_size``/``warm_engine``/KS
acceptance parameters, the scheduler's transport choice and the early-abort
policy — into one dataclass that round-trips to JSON alongside
:class:`~repro.scenarios.spec.ScenarioSpec`.  A serialized config plus its
scenario spec is therefore a complete, wire-shippable description of a
repair run: the same object can configure an in-process session, be saved
as a file for ``python -m repro repair --config``, or be dispatched to a
remote coordinator.

The config is *declarative*: it holds names and numbers, never live
objects.  Factory methods (:meth:`RepairConfig.build_scenario`,
:meth:`cost_model`, :meth:`make_backtester`, :meth:`make_scheduler`)
construct the runtime pieces, so construction logic lives in one place
instead of being hand-wired at every call site.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Optional, get_args, get_origin, get_type_hints

from ..backtest.abort import EarlyAbortPolicy
from ..distrib.faults import FaultToleranceConfig
from ..meta.costs import CostModel
from ..scenarios.spec import ScenarioSpec


class ConfigError(ValueError):
    """Raised for malformed or inconsistent repair configurations."""


#: How a wire value of each declared field type is named in an error.  Any
#: other declared type (``Dict[...]``, a nested config) travels as an object.
_WIRE_KINDS = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", dict: "an object"}


@functools.lru_cache(maxsize=None)
def _declared_kinds(cls):
    """``{field name: (wire kind, nullable)}`` from ``cls``'s annotations."""
    kinds = {}
    for name, hint in get_type_hints(cls).items():
        nullable = type(None) in get_args(hint)
        if nullable:
            hint = get_args(hint)[0]
        kind = get_origin(hint) or hint
        kinds[name] = (kind if kind in _WIRE_KINDS else dict, nullable)
    return kinds


def _check_wire(cls, wire: Dict[str, object], what: str) -> None:
    """Refuse a wire with a key ``cls`` does not have or a value that is not
    of the type the field declares.

    JSON has no coercion to lean on: ``"no"`` is truthy and ``"2" > 1``
    raises deep inside a worker, so each value is checked at the door —
    ``bool`` is exactly ``bool``, an ``int`` field refuses ``bool`` and
    ``str``, a ``float`` field takes either number, ``None`` passes only
    where the field is ``Optional``.
    """
    kinds = _declared_kinds(cls)
    unknown = set(wire) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in wire.items():
        kind, nullable = kinds[key]
        if value is None and nullable:
            continue
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or (
                kind is not bool and isinstance(value, bool)):
            raise ConfigError(
                f"{what} key {key!r} must be {_WIRE_KINDS[kind]}"
                f"{' or null' if nullable else ''}, not {value!r}")


@dataclass
class TelemetryConfig:
    """Knobs for the observability layer (:mod:`repro.obs`).

    ``RepairConfig.telemetry`` is ``None`` when telemetry is off — the
    default — so disabled runs construct nothing.
    """

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

    def to_wire(self) -> Dict[str, object]:
        return {"enabled": self.enabled, "slice_packets": self.slice_packets,
                "profile": self.profile,
                "trace_fixpoints": self.trace_fixpoints}

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "TelemetryConfig":
        _check_wire(cls, wire, "telemetry")
        return cls(**wire)


@dataclass
class RepairConfig:
    """Every knob of the Diagnose → Generate → Backtest → Rank pipeline."""

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
    #: Switch candidates on a warm engine (checkpoint restore + program swap).
    warm_engine: bool = True
    #: Statically vet candidates before replay; provably behaviour-
    #: preserving ones (inert inserts, no-op edits) skip backtesting and
    #: are reported rejected with a ``vetoed`` note.
    static_vet: bool = True
    #: Optional mid-trace kill switch for hopeless candidates.
    abort: Optional[EarlyAbortPolicy] = None

    # -- Scheduling: where candidate evaluations run --------------------
    #: Worker count for candidate evaluation (1 = serial).
    workers: int = 1
    #: Distributed-fabric transport name (``"inprocess"``, ``"spawn"``,
    #: ``"socket"``); ``None`` leaves it to the backtester, which runs
    #: serial or — ``workers > 1`` on a job worth it — on a spawn fleet of
    #: its own (``Backtester._run_candidates``).
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

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_scenario(cls, name: str, params: Optional[Dict[str, object]] = None,
                     **knobs) -> "RepairConfig":
        """Config for a registered scenario: ``RepairConfig.for_scenario("Q1")``."""
        return cls(scenario=ScenarioSpec.create(name, params=params), **knobs)

    def with_updates(self, **knobs) -> "RepairConfig":
        """A copy with some knobs replaced (configs are cheap values)."""
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
            workers=self.workers,
            replay_batch_size=self.replay_batch_size,
            abort_policy=self.abort,
            warm_engine=self.warm_engine,
            static_vet=self.static_vet,
            multiquery=self.multiquery)

    def make_scheduler(self, progress=None, events=None, telemetry=None):
        """The configured distributed scheduler, or ``None`` for local runs.

        This is the single construction path from declarative knobs to a
        :class:`repro.distrib.Scheduler` — call sites no longer hand-wire
        transports, worker counts and abort policies.  The scheduler
        borrows the process's idle fleet of this shape, if any, and
        ``close()`` parks it again (``Scheduler.borrow``).
        """
        if self.transport is None:
            return None
        from ..distrib.coordinator import Scheduler
        return Scheduler.from_config(self, progress=progress, events=events,
                                     telemetry=telemetry)

    def make_telemetry(self):
        """A live :class:`repro.obs.Telemetry` bundle, or ``None`` when the
        ``telemetry`` knob is absent or disabled."""
        if self.telemetry is None or not self.telemetry.enabled:
            return None
        from ..obs import Telemetry
        return Telemetry(slice_packets=self.telemetry.slice_packets,
                         profile=self.telemetry.profile,
                         trace_fixpoints=self.telemetry.trace_fixpoints)

    # ------------------------------------------------------------------
    # Wire format (rides alongside ScenarioSpec / candidate wires)
    # ------------------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {}
        for config_field in fields(self):
            value = getattr(self, config_field.name)
            if config_field.name in ("scenario", "abort", "telemetry",
                                     "fault_tolerance"):
                value = value.to_wire() if value is not None else None
            wire[config_field.name] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "RepairConfig":
        data = dict(wire)
        _check_wire(cls, data, "config")
        if data.get("scenario") is not None:
            data["scenario"] = ScenarioSpec.from_wire(data["scenario"])
        if data.get("abort") is not None:
            _check_wire(EarlyAbortPolicy, data["abort"], "abort")
            try:
                data["abort"] = EarlyAbortPolicy.from_wire(data["abort"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if data.get("telemetry") is not None:
            data["telemetry"] = TelemetryConfig.from_wire(data["telemetry"])
        if data.get("fault_tolerance") is not None:
            try:
                data["fault_tolerance"] = FaultToleranceConfig.from_wire(
                    data["fault_tolerance"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"malformed repair config: {exc}") from exc

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_wire(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RepairConfig":
        try:
            wire = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(wire, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_wire(wire)

    @classmethod
    def from_file(cls, path) -> "RepairConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
