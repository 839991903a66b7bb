"""RepairConfig: JSON round-trip, factories, and error handling."""

import json

import pytest

from repro.api import (ConfigError, FaultToleranceConfig, RepairConfig,
                       TelemetryConfig)
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.scenarios import build_scenario
from repro.scenarios.spec import ScenarioSpec


def full_config():
    """A config with every knob off its default (incl. scheduler/abort)."""
    return RepairConfig(
        scenario=ScenarioSpec.create("Q2", params={}),
        max_candidates=9,
        cost_overrides={"change_constant": 0.7},
        cost_cutoff=4.5,
        far_constant_surcharge=0.4,
        multiquery=True,
        ks_threshold=0.11,
        alpha=0.01,
        use_significance=True,
        trace_limit=120,
        max_packet_in_growth=2.5,
        replay_batch_size=16,
        abort=EarlyAbortPolicy(check_every=16, ks_slack=1.5,
                               min_fraction=0.5),
        workers=3,
        transport="spawn",
        transport_options={"port": 0},
    )


def test_json_round_trip_defaults():
    config = RepairConfig.for_scenario("Q1")
    assert RepairConfig.from_json(config.to_json()) == config


def test_json_round_trip_every_knob():
    config = full_config()
    clone = RepairConfig.from_json(config.to_json())
    assert clone == config
    # The wire is plain JSON all the way down (no repr()-style payloads).
    wire = json.loads(config.to_json())
    assert wire["scenario"]["name"] == "Q2"
    assert wire["abort"]["check_every"] == 16
    assert wire["transport"] == "spawn"
    assert wire["workers"] == 3


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    config = full_config()
    path.write_text(config.to_json(indent=2), encoding="utf-8")
    assert RepairConfig.from_file(path) == config


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RepairConfig.from_wire({"max_candidate": 5})
    # A stored config may still carry a knob that was deleted for doing
    # nothing; saying so beats accepting a setting that changes no report.
    with pytest.raises(ConfigError, match=r"unknown config keys: "
                                          r"\['expansion_cost'\]"):
        RepairConfig.from_wire({"expansion_cost": 0.02})


@pytest.mark.parametrize("key, value, expected", [
    ("static_vet", "no", "a boolean"),                # bool: exactly bool
    ("static_vet", 0, "a boolean"),
    ("workers", "2", "an integer"),                   # int: no str ...
    ("max_candidates", True, "an integer"),           # ... and no bool
    ("max_candidates", 14.0, "an integer"),
    ("max_candidates", None, "an integer"),           # not Optional
    ("trace_limit", "120", "an integer or null"),     # Optional[int]
    ("alpha", "0.05", "a number"),                    # float
    ("alpha", False, "a number"),
    ("ks_threshold", [0.1], "a number or null"),      # Optional[float]
    ("transport", 3, "a string or null"),             # Optional[str]
    ("cost_overrides", [["change_constant", 1]], "an object"),   # Dict
    ("transport_options", None, "an object"),
    ("scenario", "Q1", "an object or null"),          # nested configs
    ("abort", True, "an object or null"),
    ("telemetry", "on", "an object or null"),
    ("fault_tolerance", 3, "an object or null"),
])
def test_wire_values_are_type_checked_at_the_door(key, value, expected):
    with pytest.raises(ConfigError) as excinfo:
        RepairConfig.from_wire({"scenario": {"name": "Q1"}, key: value})
    assert f"config key {key!r} must be {expected}" in str(excinfo.value)


def test_wire_numbers_and_nulls_the_fields_declare_are_accepted():
    config = RepairConfig.from_wire({
        "alpha": 1, "ks_threshold": 0, "cost_cutoff": 4.5,     # int for float
        "trace_limit": None, "transport": None, "abort": None,
        "telemetry": None, "scenario": None, "workers": 2})
    assert (config.alpha, config.ks_threshold, config.workers) == (1, 0, 2)


def test_telemetry_wire_is_type_checked_too():
    with pytest.raises(ConfigError, match="'enabled' must be a boolean"):
        TelemetryConfig.from_wire({"enabled": "false"})
    with pytest.raises(ConfigError, match="'slice_packets' must be an "
                                          "integer or null"):
        RepairConfig.from_wire({"telemetry": {"slice_packets": "64"}})
    with pytest.raises(ConfigError, match="unknown telemetry keys"):
        TelemetryConfig.from_wire({"enable": True})
    assert TelemetryConfig.from_wire({"slice_packets": None}).enabled is True


def test_abort_wire_is_type_and_range_checked_too():
    for abort, message in [
            ({"check_every": 0}, "check_every must be >= 1"),
            ({"bogus": 1}, "unknown abort keys"),
            ({"check_every": True}, "'check_every' must be an integer"),
            ({"check_every": "x"}, "'check_every' must be an integer"),
            ({"min_fraction": "half"}, "'min_fraction' must be a number"),
            ({"min_fraction": 1.5}, r"min_fraction must be within \[0, 1\]")]:
        with pytest.raises(ConfigError, match=message):
            RepairConfig.from_wire({"abort": abort})
    assert RepairConfig.from_wire({"abort": {}}).abort == EarlyAbortPolicy()


def test_every_to_wire_output_still_round_trips():
    for config in (RepairConfig(), RepairConfig.for_scenario("Q1"),
                   full_config(),
                   full_config().with_updates(
                       telemetry=TelemetryConfig(slice_packets=64,
                                                 profile=True),
                       fault_tolerance=FaultToleranceConfig())):
        wire = json.loads(json.dumps(config.to_wire()))
        assert RepairConfig.from_wire(wire) == config
        assert RepairConfig.from_wire(wire).to_wire() == config.to_wire()


def test_invalid_json_rejected():
    with pytest.raises(ConfigError):
        RepairConfig.from_json("not json")
    with pytest.raises(ConfigError):
        RepairConfig.from_json("[1, 2]")


def test_build_scenario_requires_spec():
    with pytest.raises(ConfigError, match="no ScenarioSpec"):
        RepairConfig().build_scenario()


def test_cost_model_factory_applies_overrides():
    model = full_config().cost_model()
    assert model.costs["change_constant"] == 0.7
    assert model.cutoff == 4.5
    assert model.far_constant_surcharge == 0.4
    # A default config keeps the paper's cost model untouched.
    default_model = RepairConfig().cost_model()
    assert default_model.costs["change_constant"] != 0.7
    assert default_model.cutoff != 4.5


def test_make_backtester_wires_every_knob():
    config = full_config()
    scenario = build_scenario("Q2")
    backtester = config.make_backtester(scenario)
    assert isinstance(backtester, Backtester) and backtester.multiquery
    assert backtester.ks_threshold == 0.11
    assert backtester.alpha == 0.01
    assert backtester.use_significance is True
    assert backtester.trace_limit == 120
    assert backtester.max_packet_in_growth == 2.5
    assert backtester.replay_batch_size == 16
    assert not hasattr(backtester, "workers")    # the scheduler's knob
    assert backtester.abort_policy == config.abort


def test_make_backtester_defaults_to_scenario_threshold():
    scenario = build_scenario("Q5")
    backtester = RepairConfig().make_backtester(scenario)
    assert isinstance(backtester, Backtester)
    assert backtester.ks_threshold == scenario.ks_threshold


def test_make_scheduler_none_for_local_runs():
    assert RepairConfig().make_scheduler() is None


def test_make_scheduler_gates_workers_without_a_transport():
    """``workers > 1`` alone gets a gated spawn scheduler carrying the whole
    config; a named transport gets an ungated one."""
    strict = FaultToleranceConfig(max_attempts=1)
    for transport, gated in ((None, True), ("spawn", False)):
        config = RepairConfig(workers=2, transport=transport,
                              fault_tolerance=strict)
        with config.make_scheduler() as scheduler:
            assert scheduler.gated is gated
            assert scheduler.transport.name == "spawn"
            assert scheduler.transport.fault_policy == strict


def test_make_scheduler_flows_from_config():
    config = RepairConfig.for_scenario("Q1", transport="inprocess", workers=2,
                                       abort=EarlyAbortPolicy(check_every=8))
    scheduler = config.make_scheduler()
    try:
        assert scheduler is not None
        assert scheduler.workers == 2
        assert scheduler.early_abort == config.abort
        assert scheduler.transport.name == "inprocess"
    finally:
        scheduler.close()


def test_with_updates_returns_modified_copy():
    config = RepairConfig.for_scenario("Q1")
    tuned = config.with_updates(max_candidates=3, multiquery=True)
    assert tuned.max_candidates == 3 and tuned.multiquery
    assert config.max_candidates == 20 and not config.multiquery
    assert tuned.scenario == config.scenario


@pytest.mark.parametrize("key, value", [
    ("max_candidates", 0), ("max_candidates", -3),   # explores nothing
    ("trace_limit", 0),                              # rejects every candidate
    ("trace_limit", -5),                             # trace[:-5], silently
    ("workers", 0), ("workers", -1)])
def test_counts_out_of_range_are_refused_on_every_path(key, value):
    message = f"config {key} must be >= 1, not {value}"
    with pytest.raises(ConfigError, match=message):
        RepairConfig.from_wire({"scenario": {"name": "Q1"}, key: value})
    with pytest.raises(ConfigError, match=message):
        RepairConfig.for_scenario("Q1", **{key: value})
    with pytest.raises(ConfigError, match=message):
        RepairConfig.for_scenario("Q1").with_updates(**{key: value})


def test_counts_at_their_floor_are_accepted():
    config = RepairConfig.from_wire({"max_candidates": 1, "trace_limit": 1,
                                     "workers": 1})
    assert (config.max_candidates, config.trace_limit, config.workers) == \
        (1, 1, 1)
