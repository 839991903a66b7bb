"""The distributed backtest fabric, beyond report identity.

That serial, in-process, ``spawn`` and ``socket`` runs give bit-identical
reports for Q1-Q5, with and without an abort policy, is a row of the
contract table (``tests/contracts``).  What is left here is the rest of the
fabric: progress events, the gated scheduler a config with ``workers=N``
and no transport gets (spawn fleet with a spec, serial without), the early
abort's soundness, job-wire validation, scheduler error paths, a socket
transport's restart after ``close()`` and the stitched traces of worker
spans.
"""

import os

import pytest

import repro.backtest.replay as replay_module
from repro.api import EventBus, RepairConfig
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.distrib import (DistribError, JobRuntime, Scheduler, Transport,
                           build_job_wire, job_digest)
from repro.scenarios import build_scenario

from cases import flooding_candidate, report_snapshot, scenario_candidates

#: The scenarios the tests below run on (Q1-Q5 parity is the table's).
SCENARIOS = ["Q1", "Q2"]


@pytest.fixture(scope="module")
def scenarios():
    return {name: build_scenario(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def candidate_sets():
    """One candidate list per scenario, shared by the reference runs and
    every transport run (candidate ids/tags cross the wire and must
    round-trip)."""
    return {name: scenario_candidates(name) for name in SCENARIOS}


@pytest.fixture(scope="module")
def serial_snapshots(scenarios, candidate_sets):
    """Reference reports, computed once per scenario."""
    return {name: report_snapshot(
        Backtester(scenarios[name], ks_threshold=scenarios[name].ks_threshold
                   ).evaluate_all(candidate_sets[name]))
        for name in SCENARIOS}


@pytest.fixture(scope="module")
def spawn_scheduler():
    with Scheduler(transport="spawn", workers=2) as scheduler:
        yield scheduler


@pytest.fixture(scope="module")
def socket_scheduler():
    with Scheduler(transport="socket", workers=2) as scheduler:
        yield scheduler


def test_progress_streams_in_completion_order(scenarios, candidate_sets):
    events = EventBus()
    scenario = scenarios["Q1"]
    candidates = candidate_sets["Q1"]
    with Scheduler(transport="inprocess", events=events) as scheduler:
        Backtester(scenario, ks_threshold=scenario.ks_threshold
                   ).evaluate_all(candidates, scheduler=scheduler)
    updates = events.of_kind("backtest_progress")
    assert [(event.done, event.total) for event in updates] == \
        [(1, 2), (2, 2)]
    assert {event.description for event in updates} == \
        {candidate.description for candidate in candidates}


def test_workers_without_scheduler_use_spawn(scenarios, serial_snapshots,
                                            candidate_sets, monkeypatch):
    """A config with workers=N and no transport gets a gated spawn
    scheduler, which runs the job on its fleet (not silently serial) once
    the job is worth it and the scenario carries a spec."""
    used = []
    run = Scheduler.run

    def spy(self, backtester, candidates, *args):
        used.append(self.transport.name)
        return run(self, backtester, candidates, *args)

    # These smoke-sized replays are exactly what the min-work gate keeps
    # serial; open it.
    monkeypatch.setattr(replay_module, "PARALLEL_MIN_SECONDS", 0.0)
    monkeypatch.setattr(Scheduler, "run", spy)
    scenario = scenarios["Q2"]
    with RepairConfig(workers=2).make_scheduler() as scheduler:
        assert scheduler.gated
        report = Backtester(scenario, ks_threshold=scenario.ks_threshold
                            ).evaluate_all(candidate_sets["Q2"],
                                           scheduler=scheduler)
    assert used == ["spawn"]
    assert report_snapshot(report) == serial_snapshots["Q2"]


def test_early_abort_rejects_overloading_candidate(scenarios):
    """The abort policy kills a controller-flooding replay mid-trace; the
    sound (monotone) overload bound means the verdict matches the full
    replay's rejection."""
    scenario = scenarios["Q1"]
    flooder = flooding_candidate()
    fix = scenario_candidates("Q1")[0]   # fresh copy: notes compared below
    policy = EarlyAbortPolicy(check_every=8, min_fraction=0.1)
    with Scheduler(transport="inprocess") as scheduler:
        report = Backtester(scenario, max_packet_in_growth=1.5,
                            abort_policy=policy).evaluate_all(
                                [flooder, fix], scheduler=scheduler)
    aborted, accepted = report.results
    assert not aborted.accepted and not aborted.effective
    assert any(note.startswith("aborted after") for note in aborted.notes)
    assert aborted.stats.total < len(scenario.trace())
    assert accepted.accepted
    assert accepted.notes == fix.notes
    # Sound: the full replay breaks the bound the abort checked.
    backtester = Backtester(scenario, max_packet_in_growth=1.5)
    full = backtester.evaluate(flooding_candidate())
    assert not full.accepted
    assert full.stats.packet_in_count > \
        1.5 * backtester.baseline().packet_in_count


def test_missing_spec_raises(scenarios):
    scenario = build_scenario("Q1", repetitions=1)
    scenario.spec = None
    with Scheduler(transport="inprocess") as scheduler:
        with pytest.raises(DistribError, match="ScenarioSpec"):
            Backtester(scenario).evaluate_all(scenario_candidates("Q1"),
                                              scheduler=scheduler)


def test_workers_without_spec_run_serial(monkeypatch):
    """A live scenario object with no ScenarioSpec cannot leave the process:
    a gated scheduler above the min-work gate runs the serial loop (the
    job never reaches the transport, no error) and reports what the serial
    run reports."""

    def no_fleet(*args, **kwargs):
        raise AssertionError("a spec-less scenario must not reach a fleet")

    monkeypatch.setattr(replay_module, "PARALLEL_MIN_SECONDS", 0.0)
    monkeypatch.setattr(Transport, "run_job", no_fleet)
    scenario = build_scenario("Q1", repetitions=1)
    scenario.spec = None
    candidates = scenario_candidates("Q1")
    serial = Backtester(scenario, ks_threshold=scenario.ks_threshold
                        ).evaluate_all(candidates)
    with RepairConfig(workers=2).make_scheduler() as scheduler:
        parallel = Backtester(scenario, ks_threshold=scenario.ks_threshold
                              ).evaluate_all(candidates, scheduler=scheduler)
    assert report_snapshot(parallel) == report_snapshot(serial)


def test_job_wire_carries_the_backtester_config(scenarios):
    scenario = scenarios["Q1"]
    candidates = scenario_candidates("Q1")
    wires = {threshold: build_job_wire(
        Backtester(scenario, ks_threshold=threshold), candidates)
        for threshold in (0.05, 0.2)}
    for threshold, wire in wires.items():
        assert wire["config"]["ks_threshold"] == threshold
        assert "backtester" not in wire
        assert JobRuntime(wire).backtester.ks_threshold == threshold
    assert job_digest(wires[0.05]) != job_digest(wires[0.2])


def test_job_wire_naming_a_class_or_a_gone_knob_is_malformed(scenarios):
    """Wires from older coordinators (a ``"backtester"`` class name, a
    ``multiquery`` flag in the config) are refused up front as
    DistribError — never a KeyError/TypeError inside a worker."""
    scenario = scenarios["Q1"]
    wire = build_job_wire(Backtester(scenario), scenario_candidates("Q1"))
    named = dict(wire, backtester="MultiQueryBacktester")
    for multiquery in (False, True):
        flagged = dict(wire, config=dict(wire["config"],
                                         multiquery=multiquery))
        with pytest.raises(DistribError,
                           match=r"unknown BacktesterConfig keys: "
                                 r"\['multiquery'\]"):
            JobRuntime(flagged)
    with pytest.raises(DistribError,
                       match=r"unknown backtest job keys: \['backtester'\]"):
        JobRuntime(named)


def test_socket_transport_restarts_after_close(serial_snapshots,
                                               candidate_sets):
    """close() must leave the transport restartable: the next run_job
    restarts supervision and spawns fresh workers, instead of hanging
    with orphaned workers."""
    scenario = build_scenario("Q1", repetitions=1)
    candidates = candidate_sets["Q1"]
    transport = Transport("socket", workers=1, result_timeout=120.0)
    snapshots = []
    for _round in range(2):
        with Scheduler(transport=transport) as scheduler:
            report = Backtester(scenario, ks_threshold=scenario.ks_threshold
                                ).evaluate_all(candidates,
                                               scheduler=scheduler)
        snapshots.append(report_snapshot(report))
        transport.close()
    assert snapshots[0] == snapshots[1]


def test_empty_candidate_list(scenarios):
    scenario = scenarios["Q1"]
    with Scheduler(transport="inprocess") as scheduler:
        report = Backtester(scenario, ks_threshold=scenario.ks_threshold
                            ).evaluate_all([], scheduler=scheduler)
    assert report.results == []


# ---------------------------------------------------------------------------
# Telemetry propagation: worker spans stitch under the coordinator's trace
# ---------------------------------------------------------------------------

from repro.obs import Telemetry, validate_chrome_trace


def _traced_fabric_run(scenario, candidates, scheduler):
    telemetry = Telemetry()
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    backtester.telemetry = telemetry
    report = backtester.evaluate_all(candidates, scheduler=scheduler)
    return telemetry, report


def _assert_stitched(telemetry, candidate_count, cross_process):
    spans = telemetry.tracer.finished
    assert {span["trace_id"] for span in spans} == {telemetry.trace_id}
    job_spans = [span for span in spans if span["name"] == "fabric.job"]
    assert len(job_spans) == 1
    job_id = job_spans[0]["span_id"]
    item_spans = [span for span in spans if span["name"] == "candidate"]
    assert {span["span_id"] for span in item_spans} == \
        {f"{job_id}.c{i}" for i in range(candidate_count)}
    assert all(span["parent_id"] == job_id for span in item_spans)
    if cross_process:
        assert any(span["pid"] != os.getpid() for span in item_spans)
    info = validate_chrome_trace(telemetry.chrome_trace())
    assert info["span_count"] == len(spans)
    counters = {name: value for name, _labels, value
                in telemetry.metrics.snapshot()["counters"]}
    assert counters.get("fabric_items") == candidate_count


def test_spawn_workers_stitch_under_coordinator_trace(
        scenarios, serial_snapshots, candidate_sets, spawn_scheduler):
    candidates = candidate_sets["Q1"]
    telemetry, report = _traced_fabric_run(scenarios["Q1"], candidates,
                                           spawn_scheduler)
    _assert_stitched(telemetry, len(candidates), cross_process=True)
    # Telemetry must never perturb results: bit-identical to serial.
    assert report_snapshot(report) == serial_snapshots["Q1"]


def test_socket_workers_stitch_under_coordinator_trace(
        scenarios, serial_snapshots, candidate_sets, socket_scheduler):
    candidates = candidate_sets["Q2"]
    telemetry, report = _traced_fabric_run(scenarios["Q2"], candidates,
                                           socket_scheduler)
    _assert_stitched(telemetry, len(candidates), cross_process=True)
    assert report_snapshot(report) == serial_snapshots["Q2"]


def test_inprocess_transport_stitches_without_processes(
        scenarios, candidate_sets):
    candidates = candidate_sets["Q1"]
    with Scheduler(transport="inprocess") as scheduler:
        telemetry, _ = _traced_fabric_run(scenarios["Q1"], candidates,
                                          scheduler)
    _assert_stitched(telemetry, len(candidates), cross_process=False)


def test_worker_metrics_merge_into_coordinator_registry(
        scenarios, candidate_sets, spawn_scheduler):
    candidates = candidate_sets["Q1"]
    telemetry, _ = _traced_fabric_run(scenarios["Q1"], candidates,
                                      spawn_scheduler)
    snapshot = telemetry.metrics.snapshot()
    worker_items = [(dict(labels)["worker"], value)
                    for name, labels, value in snapshot["counters"]
                    if name == "worker_items"]
    assert sum(value for _worker, value in worker_items) == len(candidates)
    assert all(worker != str(os.getpid()) for worker, _value in worker_items)
