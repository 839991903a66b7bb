"""RepairJob wire format: round trips, strictness, runtime dispatch."""

import pytest

from repro.api import EventBus, RepairConfig, RepairSession
from repro.distrib import DistribError
from repro.distrib.jobs import JobRuntime, RuntimeCache, build_runtime
from repro.service import (REPAIR_JOB_KIND, RepairJob, RepairJobError,
                           RepairJobRuntime, scenario_digest)

from conftest import report_minus_timings


def q1_job(**knobs):
    config = RepairConfig.for_scenario("Q1", max_candidates=4, **knobs)
    return RepairJob(session_id="s-0001", config=config, tenant="alice",
                     submitted_unix=123.0)


class TestWire:
    def test_round_trip(self):
        job = q1_job()
        wire = job.to_wire()
        assert wire["kind"] == REPAIR_JOB_KIND
        assert wire["session_id"] == "s-0001"
        assert wire["tenant"] == "alice"
        back = RepairJob.from_wire(wire)
        assert back.to_wire() == wire
        assert back.config.to_wire() == job.config.to_wire()

    def test_json_round_trip(self):
        job = q1_job()
        assert RepairJob.from_json(job.to_json()).to_wire() == job.to_wire()

    def test_unknown_keys_rejected(self):
        wire = q1_job().to_wire()
        wire["surprise"] = 1
        with pytest.raises(RepairJobError, match="surprise"):
            RepairJob.from_wire(wire)

    def test_wrong_kind_rejected(self):
        wire = q1_job().to_wire()
        wire["kind"] = "backtest"
        with pytest.raises(RepairJobError):
            RepairJob.from_wire(wire)

    def test_config_must_name_a_scenario(self):
        with pytest.raises(RepairJobError, match="ScenarioSpec"):
            RepairJob(session_id="s-1", config=RepairConfig())

    def test_scenario_digest_ignores_knobs(self):
        # Same scenario spec, different repair knobs -> one cache slot.
        a = q1_job().to_wire()
        b = q1_job(ks_threshold=0.123).to_wire()
        assert scenario_digest(a) == scenario_digest(b)
        other = RepairJob(
            session_id="s-2",
            config=RepairConfig.for_scenario("Q2")).to_wire()
        assert scenario_digest(a) != scenario_digest(other)


class TestBuildRuntime:
    def test_dispatches_repair_jobs(self):
        runtime = build_runtime(q1_job().to_wire())
        assert isinstance(runtime, RepairJobRuntime)
        assert len(runtime) == 1

    def test_dispatches_backtest_jobs(self):
        # The backtest kind resolves to JobRuntime, whoever tagged it.
        from repro.backtest import Backtester
        from repro.distrib.jobs import build_job_wire
        from repro.scenarios import build_scenario
        scenario = build_scenario("Q1")
        job_wire = build_job_wire(
            Backtester(scenario, ks_threshold=scenario.ks_threshold), [])
        assert isinstance(build_runtime(job_wire), JobRuntime)
        assert isinstance(build_runtime(dict(job_wire, kind="backtest")),
                          JobRuntime)

    def test_unknown_kind_raises(self):
        with pytest.raises(DistribError, match="job kind"):
            build_runtime({"kind": "mystery"})


class TestRuntime:
    def test_evaluate_matches_in_process_session(self):
        from repro.repair import reset_candidate_ids
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        # The runtime resets candidate numbering per job; give the
        # in-process reference run the same fresh numbering.
        reset_candidate_ids()
        reference = report_minus_timings(RepairSession(config).run().to_wire())

        runtime = build_runtime(
            RepairJob(session_id="s-9", config=config,
                      tenant="t").to_wire())
        outcome = runtime.evaluate(0)
        assert outcome["session_id"] == "s-9"
        assert outcome["tenant"] == "t"
        assert outcome["scenario"] == "Q1"
        assert report_minus_timings(outcome["report"]) == reference
        assert set(outcome["stage_seconds"]) == {
            "diagnose", "generate", "backtest", "rank"}

    def test_streams_the_same_events_as_an_in_process_bus(self):
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(event.kind))
        RepairSession(config, events=bus).run()

        runtime = build_runtime(
            RepairJob(session_id="s-9", config=config).to_wire())
        wires = []
        runtime.set_event_sink(wires.append)
        runtime.evaluate(0)
        assert [w["kind"] for w in wires] == seen
        assert wires[0]["kind"] == "session_started"
        assert wires[-1]["kind"] == "session_finished"

    def test_scenario_cache_shared_across_sessions(self):
        cache = RuntimeCache()
        config = RepairConfig.for_scenario("Q1", max_candidates=4)
        for session_id in ("s-1", "s-2"):
            runtime = build_runtime(
                RepairJob(session_id=session_id, config=config).to_wire(),
                cache=cache)
            runtime.evaluate(0)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_only_index_zero_is_valid(self):
        runtime = build_runtime(q1_job().to_wire())
        with pytest.raises(DistribError):
            runtime.evaluate(1)
