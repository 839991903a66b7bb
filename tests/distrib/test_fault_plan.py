"""Wire-format and policy-math tests for the fault-tolerance primitives.

FaultPlan / FaultAction are declarative objects like ScenarioSpec: they
must JSON round-trip exactly, reject unknown keys, and generate
deterministically from a seed — that determinism is what makes the chaos
suite and the CI chaos step reproducible anywhere.  The retry, restart and
deadline rule is module constants, whose arithmetic is checked here.
"""

import json

import pytest

from repro.distrib import (FAULT_KINDS, FaultAction, FaultInjector,
                           FaultPlan, InjectedFault)
from repro.distrib import faults


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
# The fault rule's arithmetic
# ---------------------------------------------------------------------------


def test_item_deadline_scales_the_baseline_above_a_floor():
    # Tiny baselines ride the floor; big ones scale with the factor.
    assert faults.item_deadline(0.001) == faults.DEADLINE_FLOOR_SECONDS
    assert faults.item_deadline(10.0) == 500.0
    assert faults.item_deadline(None) is None


def test_backoff_is_capped_exponential(monkeypatch):
    assert faults.backoff(0) == pytest.approx(0.1)
    assert faults.backoff(1) == pytest.approx(0.2)
    assert faults.backoff(10) == pytest.approx(2.0)   # capped
    monkeypatch.setattr(faults, "BACKOFF_CAP_SECONDS", 0.35)
    assert faults.backoff(2) == pytest.approx(0.35)   # capped, not 0.4


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
