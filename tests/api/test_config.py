"""RepairConfig: JSON round-trip, factories, and error handling."""

import json
import math
import re

import pytest

from repro.api import (ConfigError, RepairConfig, RepairSession,
                       TelemetryConfig)
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.meta.costs import DEFAULT_COSTS, CostModel
from repro.scenarios import build_scenario
from repro.scenarios.spec import ScenarioSpec


def full_config():
    """A config with every knob off its default (incl. scheduler/abort)."""
    return RepairConfig(
        scenario=ScenarioSpec.create("Q2", params={}),
        max_candidates=9,
        ks_threshold=0.11,
        trace_limit=120,
        max_packet_in_growth=2.5,
        static_vet=False,
        abort=EarlyAbortPolicy(check_every=16, min_fraction=0.5),
        workers=3,
        transport="spawn",
        transport_options={"result_timeout": 60.0},
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
    # The significance mode and the cost knobs went the same way: one
    # acceptance rule (the scenario's KS threshold) and the paper's costs.
    for key, value in (("alpha", 0.05), ("use_significance", True),
                       ("cost_overrides", {"change_constant": 0.7}),
                       ("cost_cutoff", 4.5),
                       ("far_constant_surcharge", 0.4),
                       # The fabric's fault rule is constants, not a knob.
                       ("fault_tolerance", {"max_attempts": 1})):
        with pytest.raises(ConfigError, match=rf"unknown config keys: "
                                              rf"\['{key}'\]"):
            RepairConfig.from_wire({"scenario": {"name": "Q1"}, key: value})
    # The abort policy checks the backtester's own growth bound, never a
    # private one, and has no KS check.
    for key, value in (("ks_slack", 1.5), ("max_packet_in_growth", 2.0)):
        with pytest.raises(ConfigError, match=rf"unknown abort keys: "
                                              rf"\['{key}'\]"):
            RepairConfig.from_wire({"abort": {key: value}})


@pytest.mark.parametrize("options, message", [
    ({"bogus": 1}, r"unknown config transport_options keys: \['bogus'\]"),
    ({"fault_policy": {"max_attempts": 1}},
     r"unknown config transport_options keys: \['fault_policy'\]"),
    ({"fault_plan": {"actions": [{"kind": "explode"}]}},
     r"config transport_options 'fault_plan': unknown fault kind 'explode'"),
    ({"fault_plan": "chaos"},
     r"config transport_options 'fault_plan': cannot build a FaultPlan"),
    # The remote-worker keys are gone with the listener.
    ({"host": "127.0.0.1", "port": 0, "spawn_workers": False},
     r"unknown config transport_options keys: "
     r"\['host', 'port', 'spawn_workers'\]"),
    # Crashed inside the transport once the run started.
    ({"result_timeout": None},
     r"key 'result_timeout' must be int or float, not None"),
    # A spawn fleet raised TransportError("no worker progress for -1s").
    ({"result_timeout": -1},
     r"result_timeout must be finite and > 0, not -1"),
    ({"result_timeout": 0.0},
     r"result_timeout must be finite and > 0, not 0.0"),
    ({"result_timeout": math.nan},
     r"result_timeout must be finite and > 0, not nan"),
], ids=["unknown", "fault_policy", "plan_kind", "plan_type", "remote_keys",
        "result_timeout",
        "result_timeout_negative", "result_timeout_zero",
        "result_timeout_nan"])
def test_transport_options_are_checked_when_decoded(options, message):
    """Only ``Transport`` keywords, of their types, and a fault plan that
    decodes: the transport would otherwise raise a ``TypeError`` or
    ``WireError`` when the run starts."""
    with pytest.raises(ConfigError, match=message):
        RepairConfig.from_wire({"scenario": {"name": "Q1"},
                                "transport_options": options})
    with pytest.raises(ConfigError, match=message):
        RepairConfig.for_scenario("Q1", transport_options=options)


def test_every_transport_keyword_is_accepted():
    options = {"result_timeout": 60.0,
               "fault_plan": {"seed": 0, "actions": [
                   {"kind": "kill", "worker": 0, "after_items": 0}]}}
    config = RepairConfig.from_wire({"transport_options": options})
    assert config.transport_options == options


#: ``(key, value, what the refusal says the key must be)``.
MISTYPED = [
    ("static_vet", "no", "a boolean"),                # bool: exactly bool
    ("static_vet", 0, "a boolean"),
    ("workers", "2", "an integer"),                   # int: no str ...
    ("max_candidates", True, "an integer"),           # ... and no bool
    ("max_candidates", 14.0, "an integer"),
    ("max_candidates", None, "an integer"),           # not Optional
    ("trace_limit", "120", "an integer or null"),     # Optional[int]
    ("ks_threshold", [0.1], "a number or null"),      # Optional[float]
    ("ks_threshold", "0.05", "a number or null"),
    ("max_packet_in_growth", False, "a number or null"),
    ("transport", 3, "a string or null"),             # Optional[str]
    ("transport_options", [["port", 1]], "an object"),   # Dict
    ("transport_options", None, "an object"),
    ("scenario", "Q1", "an object or null"),          # nested configs
    ("abort", True, "an object or null"),
    ("telemetry", "on", "an object or null"),
]


@pytest.mark.parametrize("key, value, expected", MISTYPED)
def test_wire_values_are_type_checked_at_the_door(key, value, expected):
    with pytest.raises(ConfigError) as excinfo:
        RepairConfig.from_wire({"scenario": {"name": "Q1"}, key: value})
    assert f"config key {key!r} must be {expected}" in str(excinfo.value)


def _outcome(build):
    try:
        return "built", build()
    except ConfigError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("key, value", [
    *[(key, value) for key, value, _ in MISTYPED],
    ("max_candidates", "5"), ("ks_threshold", "0.1"),
    ("transport", "bogus"), ("transport", "SPAWN"),
    ("telemetry", {"enabled": True}), ("telemetry", {"slice_packets": "64"}),
    ("telemetry", {"enable": True}), ("abort", {"check_every": 8}),
    ("abort", {"check_every": 0}), ("abort", {"bogus": 1}),
    ("scenario", {"name": "Q2"}), ("scenario", {"name": "Q9"}),
    ("transport_options", {"result_timeout": 60}),
    ("transport_options", {1: 60.0}),
    ("max_packet_in_growth", 2), ("trace_limit", None),
])
def test_a_config_built_in_process_is_checked_as_its_wire_is(key, value):
    """Built in process, a config holds what its wire decodes to — a nested
    block's wire dict becomes the block — or is refused with the wire's own
    message; it once crashed later (``'dict' object has no attribute
    'check_points'``, ``'<' not supported``)."""
    in_process = _outcome(lambda: RepairConfig(
        **{"scenario": ScenarioSpec.create("Q1"), key: value}))
    wired = _outcome(lambda: RepairConfig.from_wire(
        {"scenario": {"name": "Q1"}, key: value}))
    assert in_process == wired


def test_nested_blocks_built_in_process_are_checked_too():
    with pytest.raises(ConfigError, match="'slice_packets' must be an "
                                          "integer or null, not '64'"):
        RepairConfig(telemetry=TelemetryConfig(slice_packets="64"))
    config = RepairConfig.for_scenario("Q1", abort={"check_every": 8})
    assert config.abort == EarlyAbortPolicy(check_every=8)
    assert config.make_backtester(build_scenario("Q1")).abort_policy == \
        EarlyAbortPolicy(check_every=8)


def test_transport_names_are_one_table():
    from repro.api.config import TRANSPORTS
    from repro.cli import build_parser
    from repro.distrib import DistribError
    from repro.distrib.transport import fleet_size
    repair = build_parser()._subparsers._group_actions[0].choices["repair"]
    flag, = [action for action in repair._actions
             if action.dest == "transport"]
    assert tuple(flag.choices) == TRANSPORTS
    for name in TRANSPORTS:
        assert RepairConfig(transport=name).transport == name
        assert fleet_size(name, 3) == (0 if name == "inprocess" else 3)
    with pytest.raises(DistribError, match="unknown transport 'bogus'"):
        fleet_size("bogus", 3)


def test_wire_numbers_and_nulls_the_fields_declare_are_accepted():
    config = RepairConfig.from_wire({
        "max_packet_in_growth": 2, "ks_threshold": 0,          # int for float
        "trace_limit": None, "transport": None, "abort": None,
        "telemetry": None, "scenario": None, "workers": 2})
    assert (config.max_packet_in_growth, config.ks_threshold,
            config.workers) == (2, 0, 2)


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
                                                 profile=True))):
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


def test_cost_model_factory_is_the_papers_model():
    model = full_config().cost_model()
    assert model == CostModel()
    assert model.costs == DEFAULT_COSTS and model.costs is not DEFAULT_COSTS


def test_make_backtester_wires_every_knob():
    config = full_config()
    scenario = build_scenario("Q2")
    backtester = config.make_backtester(scenario)
    assert isinstance(backtester, Backtester)
    assert backtester.ks_threshold == 0.11
    assert backtester.trace_limit == 120
    assert backtester.max_packet_in_growth == 2.5
    assert backtester.static_vet is False
    assert not hasattr(backtester, "workers")    # the scheduler's knob
    assert backtester.abort_policy == config.abort


def test_make_backtester_defaults_to_scenario_threshold():
    scenario = build_scenario("Q5")
    backtester = RepairConfig().make_backtester(scenario)
    assert isinstance(backtester, Backtester)
    assert backtester.ks_threshold == scenario.ks_threshold


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_a_bare_backtester_judges_as_a_session_does(name):
    """The threshold has one default, the scenario's: ``Backtester(scenario)``
    — the usage the fabric's docstring shows — accepts exactly what a
    session with the default config accepts.  (With a second default of
    0.05 it accepted 0 of Q1's 7.)"""
    session = RepairSession(RepairConfig.for_scenario(name))
    report = session.run()
    scenario = build_scenario(name)
    assert Backtester(scenario).ks_threshold == scenario.ks_threshold
    bare = Backtester(scenario).evaluate_all(
        [result.candidate for result in report.backtest.results])
    assert [(r.accepted, r.effective, r.ks.statistic)
            for r in bare.results] == \
        [(r.accepted, r.effective, r.ks.statistic)
         for r in report.backtest.results]
    assert bare.accepted()


def test_make_scheduler_none_for_local_runs():
    assert RepairConfig().make_scheduler() is None


def test_make_scheduler_gates_workers_without_a_transport():
    """``workers > 1`` alone gets a gated spawn scheduler carrying the whole
    config; a named transport gets an ungated one."""
    for transport, gated in ((None, True), ("spawn", False)):
        config = RepairConfig(workers=2, transport=transport,
                              transport_options={"result_timeout": 60.0})
        with config.make_scheduler() as scheduler:
            assert scheduler.gated is gated
            assert scheduler.transport.name == "spawn"
            assert scheduler.transport.result_timeout == 60.0


def test_make_scheduler_flows_from_config():
    config = RepairConfig.for_scenario("Q1", transport="inprocess", workers=2,
                                       abort=EarlyAbortPolicy(check_every=8))
    scheduler = config.make_scheduler()
    try:
        assert scheduler is not None
        assert scheduler.workers == 2
        assert scheduler.transport.name == "inprocess"
    finally:
        scheduler.close()


def test_with_updates_returns_modified_copy():
    config = RepairConfig.for_scenario("Q1")
    tuned = config.with_updates(max_candidates=3, static_vet=False)
    assert tuned.max_candidates == 3 and not tuned.static_vet
    assert config.max_candidates == 20 and config.static_vet
    assert tuned.scenario == config.scenario


Q1 = ScenarioSpec.create("Q1")


@pytest.mark.parametrize("key, value, message", [
    ("max_candidates", 0, "max_candidates must be >= 1, not 0"),  # explores
    ("max_candidates", -3, "max_candidates must be >= 1, not -3"),  # nothing
    ("trace_limit", 0, "trace_limit must be >= 1, not 0"),  # rejects all
    ("trace_limit", -5, "trace_limit must be >= 1, not -5"),  # trace[:-5]
    ("workers", 0, "workers must be >= 1, not 0"),
    ("workers", -1, "workers must be >= 1, not -1"),
    # Each rejected all 20 of Q1's candidates, as if none had survived.
    ("ks_threshold", math.nan, "ks_threshold must be within [0, 1], not nan"),
    ("ks_threshold", -1.0, "ks_threshold must be within [0, 1], not -1.0"),
    ("ks_threshold", 1.5, "ks_threshold must be within [0, 1], not 1.5"),
    ("max_packet_in_growth", 0.0, "growth must be finite and > 0, not 0.0"),
    ("max_packet_in_growth", -2.0, "growth must be finite and > 0, not -2.0"),
    ("max_packet_in_growth", math.inf, "must be finite and > 0, not inf"),
    # Accepted, and meant nothing.
    ("telemetry", TelemetryConfig(slice_packets=0),
     "config telemetry.slice_packets must be >= 1, not 0"),
    ("telemetry", TelemetryConfig(slice_packets=-3),
     "config telemetry.slice_packets must be >= 1, not -3"),
    # Each raised inside the scenario's builder (a traceback, exit 1), or
    # was queued for a worker to fail on.
    ("scenario", ScenarioSpec.create("Q9"),
     "unknown scenario 'Q9'; registered: Q1, Q2, Q3, Q4, Q5"),
    ("scenario", ScenarioSpec.create("Q1", params={"bogus": 1}),
     "scenario Q1 has no parameter 'bogus'; it takes ['repetitions', "
     "'s1_clients', 's4_clients']"),
    ("scenario", ScenarioSpec.create("Q1", params={"s1_clients": "x"}),
     "scenario Q1 parameter 's1_clients' must be int, not 'x'"),
    ("scenario", ScenarioSpec.create("Q4", params={"clients": True}),
     "scenario Q4 parameter 'clients' must be int, not True"),
    ("scenario", ScenarioSpec.create("Q2", params={"repetitions": 2.0}),
     "scenario Q2 parameter 'repetitions' must be int, not 2.0"),
    # Each decoded: the first two a job no worker could finish, the rest
    # a run that exited 0 with a meaningless report (an empty trace, or
    # ids 201-204 given to both an S1 and an S4 client).
    ("max_candidates", 1001, "max_candidates must be <= 1000, not 1001"),
    ("max_candidates", 10 ** 12,
     f"max_candidates must be <= 1000, not {10 ** 12}"),
    ("scenario", ScenarioSpec.create("Q1", params={"s1_clients": 10 ** 7}),
     "scenario Q1 parameter 's1_clients' must be within [2, 100], "
     "not 10000000"),
    ("scenario", ScenarioSpec.create("Q1", params={"s1_clients": 0}),
     "scenario Q1 parameter 's1_clients' must be within [2, 100], not 0"),
    ("scenario", ScenarioSpec.create("Q1", params={"s1_clients": -5}),
     "scenario Q1 parameter 's1_clients' must be within [2, 100], not -5"),
    ("scenario", ScenarioSpec.create("Q1", params={"s1_clients": 150}),
     "scenario Q1 parameter 's1_clients' must be within [2, 100], not 150"),
    ("scenario", ScenarioSpec.create("Q1", params={"repetitions": 0}),
     "scenario Q1 parameter 'repetitions' must be within [1, 50], not 0"),
    ("scenario", ScenarioSpec.create("Q4", params={"clients": 0}),
     "scenario Q4 parameter 'clients' must be within [1, 100], not 0"),
    ("scenario", ScenarioSpec.create("Q5", params={"extra_hosts": 31}),
     "scenario Q5 parameter 'extra_hosts' must be within [1, 30], not 31"),
], ids=["max_candidates-0", "max_candidates--3", "trace_limit-0",
        "trace_limit--5", "workers-0", "workers--1", "ks_threshold-nan",
        "ks_threshold--1", "ks_threshold-1.5", "max_packet_in_growth-0",
        "max_packet_in_growth--2", "max_packet_in_growth-inf",
        "slice_packets-0", "slice_packets--3", "scenario-unknown",
        "scenario-param-unknown", "scenario-param-str",
        "scenario-param-bool", "scenario-param-float", "max_candidates-1001",
        "max_candidates-1e12", "scenario-q1-s1_clients-1e7",
        "scenario-q1-s1_clients-0", "scenario-q1-s1_clients--5",
        "scenario-q1-s1_clients-150", "scenario-q1-repetitions-0",
        "scenario-q4-clients-0", "scenario-q5-extra_hosts-31"])
def test_counts_out_of_range_are_refused_on_every_path(key, value, message):
    """Counts, bounds and the scenario spec are checked when a config is
    built, copied or decoded."""
    wire = value.to_wire() if hasattr(value, "to_wire") else value
    match = re.escape(message)
    with pytest.raises(ConfigError, match=match):
        RepairConfig.from_wire({"scenario": Q1.to_wire(), key: wire})
    with pytest.raises(ConfigError, match=match):
        RepairConfig(**{"scenario": Q1, key: value})
    with pytest.raises(ConfigError, match=match):
        RepairConfig(scenario=Q1).with_updates(**{key: value})


@pytest.mark.parametrize("name, params, max_candidates", [
    *[(name, {}, 20) for name in ("Q1", "Q2", "Q3", "Q4", "Q5")],
    # The ledger's sizes: trace_heavy's three draws, candidate_heavy.
    ("Q1", {"s1_clients": 48, "s4_clients": 16, "repetitions": 10}, 14),
    ("Q1", {"s1_clients": 45, "s4_clients": 18, "repetitions": 10}, 14),
    ("Q1", {"s1_clients": 51, "s4_clients": 14, "repetitions": 10}, 14),
    ("Q1", {}, 100),
    # Each end of each range.
    ("Q1", {"s1_clients": 2, "s4_clients": 0, "repetitions": 1}, 1000),
    ("Q1", {"s1_clients": 100, "s4_clients": 100, "repetitions": 50}, 1),
    ("Q4", {"clients": 1, "repetitions": 50}, 20),
    ("Q4", {"clients": 100, "repetitions": 1}, 20),
    ("Q5", {"extra_hosts": 1, "repetitions": 50}, 20),
    ("Q5", {"extra_hosts": 30, "repetitions": 1}, 20),
])
def test_defaults_ledger_sizes_and_range_ends_are_accepted(name, params,
                                                           max_candidates):
    config = RepairConfig.for_scenario(name, params=params,
                                       max_candidates=max_candidates)
    assert RepairConfig.from_wire(config.to_wire()) == config


def test_counts_at_their_floor_are_accepted():
    config = RepairConfig.from_wire({"max_candidates": 1, "trace_limit": 1,
                                     "workers": 1, "ks_threshold": 1,
                                     "telemetry": {"slice_packets": 1}})
    assert (config.max_candidates, config.trace_limit, config.workers,
            config.ks_threshold, config.telemetry.slice_packets) == \
        (1, 1, 1, 1, 1)
