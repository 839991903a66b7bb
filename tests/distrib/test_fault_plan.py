"""Wire-format and policy-math tests for the fault-tolerance primitives.

FaultPlan / FaultAction / FaultToleranceConfig are declarative objects
like ScenarioSpec: they must JSON round-trip exactly, reject unknown
keys, and (for plans) generate deterministically from a seed — that
determinism is what makes the chaos suite and the CI chaos step
reproducible anywhere.
"""

import json

import pytest

from repro.api import ConfigError, RepairConfig
from repro.distrib import (FAULT_KINDS, FaultAction, FaultInjector,
                           FaultPlan, FaultToleranceConfig, InjectedFault)
from repro.distrib.faults import DEADLINE_FLOOR_SECONDS


# ---------------------------------------------------------------------------
# FaultAction / FaultPlan wire format
# ---------------------------------------------------------------------------


def test_action_round_trip():
    action = FaultAction(kind="kill", worker=1, after_items=2, seconds=0.5)
    assert FaultAction.from_wire(action.to_wire()) == action


def test_action_rejects_unknown_kind_and_keys():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultAction(kind="meteor")
    with pytest.raises(ValueError, match="unknown fault action keys"):
        FaultAction.from_wire({"kind": "kill", "blast_radius": 3})


def test_plan_json_round_trip():
    plan = FaultPlan(seed=7, actions=(
        FaultAction(kind="kill", worker=0, after_items=1),
        FaultAction(kind="poison", index=2),
        FaultAction(kind="corrupt_frame", index=0),
    ))
    rebuilt = FaultPlan.from_json(plan.to_json())
    assert rebuilt == plan
    # The JSON itself is plain (no pickles): a text file is a full plan.
    assert json.loads(plan.to_json())["seed"] == 7


def test_plan_accepts_wire_dict_actions():
    plan = FaultPlan(actions=({"kind": "hang", "seconds": 0.2},))
    assert plan.actions[0] == FaultAction(kind="hang", seconds=0.2)


def test_plan_rejects_unknown_keys_and_non_objects():
    with pytest.raises(ValueError, match="unknown fault plan keys"):
        FaultPlan.from_wire({"seed": 0, "chaos_level": 11})
    with pytest.raises(ValueError, match="must be an object"):
        FaultPlan.from_json("[1, 2]")


def test_plan_from_file(tmp_path):
    plan = FaultPlan(seed=3, actions=(FaultAction(kind="raise", worker=1),))
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(indent=2), encoding="utf-8")
    assert FaultPlan.from_file(path) == plan


def test_generate_is_deterministic_per_seed():
    first = FaultPlan.generate(seed=42, workers=3, items=5, count=4)
    again = FaultPlan.generate(seed=42, workers=3, items=5, count=4)
    other = FaultPlan.generate(seed=43, workers=3, items=5, count=4)
    assert first == again
    assert first != other
    assert len(first.actions) == 4
    assert all(action.kind in FAULT_KINDS for action in first.actions)


def test_coerce():
    plan = FaultPlan(seed=1)
    assert FaultPlan.coerce(None) is None
    assert FaultPlan.coerce(plan) is plan
    assert FaultPlan.coerce(plan.to_wire()) == plan
    with pytest.raises(ValueError):
        FaultPlan.coerce("chaos")


# ---------------------------------------------------------------------------
# FaultToleranceConfig
# ---------------------------------------------------------------------------


def test_config_round_trip_and_unknown_keys():
    config = FaultToleranceConfig(max_attempts=5, restart_budget=1,
                                  job_deadline=12.5, min_workers=2)
    assert FaultToleranceConfig.from_wire(config.to_wire()) == config
    with pytest.raises(ValueError, match="unknown fault_tolerance keys"):
        FaultToleranceConfig.from_wire({"max_attempts": 2, "lives": 9})


def test_config_coerce_defaults():
    assert FaultToleranceConfig.coerce(None) == FaultToleranceConfig()
    config = FaultToleranceConfig(max_attempts=2)
    assert FaultToleranceConfig.coerce(config) is config
    assert FaultToleranceConfig.coerce({"max_attempts": 2}) == config


def test_resolve_deadline_floor_factor_and_override():
    policy = FaultToleranceConfig(job_deadline_factor=50.0)
    # Tiny baselines ride the floor; big ones scale with the factor.
    assert policy.resolve_deadline(0.001) == DEADLINE_FLOOR_SECONDS
    assert policy.resolve_deadline(10.0) == 500.0
    assert policy.resolve_deadline(None) is None
    assert FaultToleranceConfig(job_deadline_factor=None
                                ).resolve_deadline(10.0) is None
    assert FaultToleranceConfig(job_deadline=2.5).resolve_deadline(10.0) == 2.5


def test_backoff_is_capped_exponential():
    policy = FaultToleranceConfig(backoff_base=0.1, backoff_cap=0.35)
    assert policy.backoff(0) == pytest.approx(0.1)
    assert policy.backoff(1) == pytest.approx(0.2)
    assert policy.backoff(2) == pytest.approx(0.35)   # capped, not 0.4
    assert policy.backoff(10) == pytest.approx(0.35)


# ---------------------------------------------------------------------------
# RepairConfig integration
# ---------------------------------------------------------------------------


def test_repair_config_fault_tolerance_round_trip():
    config = RepairConfig.for_scenario(
        "Q1", transport="spawn",
        fault_tolerance=FaultToleranceConfig(max_attempts=4,
                                             restart_budget=3))
    rebuilt = RepairConfig.from_json(config.to_json())
    assert rebuilt.fault_tolerance == config.fault_tolerance
    assert RepairConfig().fault_tolerance is None


def test_repair_config_rejects_bad_fault_tolerance():
    wire = RepairConfig().to_wire()
    wire["fault_tolerance"] = {"nine_lives": True}
    with pytest.raises(ConfigError, match="unknown fault_tolerance keys"):
        RepairConfig.from_wire(wire)


# ---------------------------------------------------------------------------
# FaultInjector semantics
# ---------------------------------------------------------------------------


def test_injector_positional_one_shot_and_fresh_id_guard():
    plan = FaultPlan(actions=(FaultAction(kind="raise", worker=0,
                                          after_items=1),))
    injector = FaultInjector(plan, worker_id=0)
    injector.before_item(0)                      # first item: no fire
    with pytest.raises(InjectedFault):
        injector.before_item(1)                  # second item: fires
    injector.before_item(2)                      # one-shot: never again
    other = FaultInjector(plan, worker_id=1)
    for index in range(4):
        other.before_item(index)                 # wrong worker: never fires
    respawned = FaultInjector(plan, worker_id=2)  # ids are never reused
    for index in range(4):
        respawned.before_item(index)             # replacement: never fires


def test_injector_poison_fires_every_attempt():
    plan = FaultPlan(actions=(FaultAction(kind="poison", index=2),))
    injector = FaultInjector(plan, worker_id=0)
    for _attempt in range(3):
        with pytest.raises(InjectedFault):
            injector.before_item(2)
    injector.before_item(1)                      # other items untouched


def test_injector_inprocess_maps_kill_to_raise():
    plan = FaultPlan(actions=(FaultAction(kind="kill", after_items=0),))
    injector = FaultInjector(plan, inprocess=True)
    with pytest.raises(InjectedFault):
        injector.before_item(0)                  # os._exit would be fatal


def test_injector_result_actions_target_and_exhaust():
    plan = FaultPlan(actions=(FaultAction(kind="drop_result", worker=0,
                                          after_items=0),))
    injector = FaultInjector(plan, worker_id=0)
    injector.before_item(5)
    action = injector.result_action(5)
    assert action is not None and action.kind == "drop_result"
    injector.before_item(6)
    assert injector.result_action(6) is None     # one-shot
    respawned = FaultInjector(plan, worker_id=2)  # ids are never reused
    respawned.before_item(5)
    assert respawned.result_action(5) is None    # replacement: clean
