"""ScenarioSpec: spawn-safe, declarative scenario reconstruction.

The distributed backtest fabric ships (name, params, seed) specs instead of
pickled scenario objects.  The contract tested here: every *registered*
scenario, rebuilt from its spec in a **fresh spawn worker** (no inherited
state whatsoever), reproduces the same trace and the same baseline traffic
statistics bit for bit.
"""

import multiprocessing

import pytest

from repro.backtest import Backtester
from repro.scenarios import (SCENARIO_BUILDERS, ScenarioSpec, SpecError,
                             build_scenario, register_scenario)


def scenario_fingerprint(scenario):
    """Trace + baseline statistics, in comparable form."""
    stats = Backtester(scenario, ks_threshold=scenario.ks_threshold).baseline()
    return {
        "trace": scenario.trace(),
        "program": scenario.program.to_ndlog(),
        "static_tuples": list(scenario.static_tuples),
        "delivered_per_host": stats.delivered_per_host,
        "dropped": stats.dropped,
        "total": stats.total,
        "packet_in_count": stats.packet_in_count,
        "flow_mod_count": stats.flow_mod_count,
        "packet_out_count": stats.packet_out_count,
        "destinations": stats.destinations,
    }


def _fingerprint_specs_from_json(spec_jsons, queue):
    """Runs in a fresh spawn child: rebuild each spec, fingerprint it."""
    try:
        out = {}
        for text in spec_jsons:
            spec = ScenarioSpec.from_json(text)
            out[spec.name] = scenario_fingerprint(spec.build())
        queue.put(("ok", out))
    except BaseException as exc:         # noqa: BLE001 — surface in parent
        queue.put(("error", repr(exc)))


def test_wire_and_json_round_trip():
    spec = ScenarioSpec.create("q1", params={"repetitions": 2}, seed=7)
    assert spec.name == "Q1"
    assert ScenarioSpec.from_wire(spec.to_wire()) == spec
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_build_scenario_stamps_spec():
    scenario = build_scenario("Q1", repetitions=1)
    assert scenario.spec == ScenarioSpec.create("Q1",
                                                params={"repetitions": 1})
    rebuilt = scenario.spec.build()
    assert rebuilt.spec == scenario.spec
    assert rebuilt.trace() == scenario.trace()


def test_unknown_scenario_raises_spec_error():
    with pytest.raises(SpecError):
        ScenarioSpec.create("Q99").build()


def test_register_scenario_extends_registry():
    try:
        register_scenario("q1_tiny",
                          lambda: build_scenario("Q1", repetitions=1))
        spec = ScenarioSpec.create("Q1_TINY")
        assert spec.build().trace() == build_scenario("Q1",
                                                      repetitions=1).trace()
    finally:
        SCENARIO_BUILDERS.pop("Q1_TINY", None)


def test_every_registered_scenario_reconstructs_in_fresh_spawn_worker():
    """Satellite acceptance: same trace, same baseline stats, per scenario,
    in a worker that shares nothing with this process."""
    names = sorted(SCENARIO_BUILDERS)
    specs = {name: build_scenario(name).spec for name in names}
    expected = {name: scenario_fingerprint(specs[name].build())
                for name in names}

    context = multiprocessing.get_context("spawn")
    queue = context.Queue()
    process = context.Process(
        target=_fingerprint_specs_from_json,
        args=([specs[name].to_json() for name in names], queue))
    process.start()
    try:
        status, payload = queue.get(timeout=300)
    finally:
        process.join(timeout=30)
        if process.is_alive():
            process.terminate()
    assert status == "ok", payload
    assert sorted(payload) == names
    for name in names:
        assert payload[name] == expected[name], \
            f"{name} did not reconstruct bit-identically in a spawn worker"
