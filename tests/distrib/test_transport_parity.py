"""Parity suite for the distributed backtest fabric.

Acceptance contract: serial, in-process and worker-pool transports produce
**bit-identical** ``BacktestReport``s — statistics (delivery records
included), KS results and verdicts — for Q1-Q5.
``"spawn"`` and ``"socket"`` name the same pool-backed transport; both
ids stay (the CLI, the ledger and ``RepairConfig.transport`` use them)
over one shared body, each with 2 persistent workers, so every tier-1 run
includes real coordinator rounds through the fleet.

Also covered: progress events, the early-abort policy (on the fabric
and off — off must stay bit-identical), the gated scheduler a config with
``workers=N`` and no transport gets (spawn fleet with a spec, serial
without), job-wire validation, and scheduler error paths.
"""

import contextlib
import os
import subprocess
import sys
import time

import pytest

import repro.backtest.replay as replay_module
from repro.api import EventBus, RepairConfig
from repro.backtest import Backtester, EarlyAbortPolicy
from repro.distrib import (DistribError, JobRuntime, Scheduler, Transport,
                           build_job_wire, job_digest)
from repro.repair import (ChangeAssignment, ChangeConstant, ChangeRuleHead,
                          CopyRule, DeleteSelection, RepairCandidate)
from repro.ndlog.ast import Var
from repro.ndlog.parser import parse_program
from repro.scenarios import build_scenario

SCENARIOS = ["Q1", "Q2", "Q3", "Q4", "Q5"]

#: A head no rule reads: re-pointing Q5's ``f2`` at it stops every flow
#: entry, as deleting the rule would.
UNROUTED_HEAD = parse_program(
    "f2 Unrouted(@Swi,SipP,Dip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), "
    "Learned(@C,Swi,Dip,Prt), SipP := *.").rules[0].head


def scenario_candidates(name):
    """One plausible fix plus one overly general repair per scenario."""
    if name == "Q1":
        return [
            RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                            cost=1.1, description="r7: Swi==2 -> Swi==3"),
            RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                            cost=2.0, description="r7: delete Swi==2"),
        ]
    if name == "Q2":
        return [
            RepairCandidate(edits=(ChangeConstant("q2c", 2, "right", 6, 7),),
                            cost=1.1, description="q2c: Sip<6 -> Sip<7"),
            RepairCandidate(edits=(DeleteSelection("q2c", 2, "Sip < 6"),),
                            cost=2.0, description="q2c: delete Sip<6"),
        ]
    if name == "Q3":
        return [
            RepairCandidate(edits=(ChangeConstant("q3fw", 2, "right", 3, 2),),
                            cost=1.1, description="q3fw: Sip>3 -> Sip>2"),
            RepairCandidate(edits=(DeleteSelection("q3fw", 2, "Sip > 3"),),
                            cost=2.0, description="q3fw: delete Sip>3"),
        ]
    if name == "Q4":
        po_http = parse_program(
            "q4poH PacketOut(@Swi,Prt) :- PacketIn(@C,Swi,Sip,Hdr), "
            "Swi == 8, Hdr == 80, Prt := 1.").rules[0]
        return [
            RepairCandidate(edits=(CopyRule("q4po", po_http),), cost=1.4,
                            description="add HTTP packet-out rule"),
            RepairCandidate(edits=(CopyRule("q4po", po_http),
                                   ChangeConstant("q4http", 0, "right", 8, 9)),
                            cost=2.4,
                            description="packet-out only (no flow entries)"),
        ]
    if name == "Q5":
        return [
            RepairCandidate(edits=(ChangeAssignment("f1", 0, "Hip", "*",
                                                    Var("Sip")),),
                            cost=1.1, description="f1: Hip := * -> Sip"),
            RepairCandidate(edits=(ChangeRuleHead("f2", UNROUTED_HEAD),),
                            cost=2.0, description="f2 installs no flow entries"),
        ]
    raise ValueError(name)


def flooding_candidate():
    """Q1's ``r1`` matching switch 5 instead of 1: every packet at switch 1
    goes to the controller, which the verdict rejects under a PacketIn
    growth bound of 1.5 and an abort policy stops early."""
    return RepairCandidate(
        edits=(ChangeConstant("r1", 0, "right", 1, 5),), cost=3.0,
        description="r1: Swi==1 -> Swi==5 (floods controller)")


@contextlib.contextmanager
def remote_workers(owner, count, token=None):
    """``count`` hand-started ``repro-worker`` processes pointed at
    ``owner`` (a pool-backed transport or the service daemon), carrying
    its token in their environment like a real remote deployment.  Yields
    once all have registered (unless a ``token`` override keeps them out);
    reaped on exit — close the owner first and they leave on its shutdown
    frame."""
    host, port = owner.address
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_WORKER_TOKEN"] = owner.token if token is None else token
    processes = [subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker",
         "--connect", f"{host}:{port}"], env=env, stderr=subprocess.DEVNULL)
        for _ in range(count)]
    try:
        deadline = time.monotonic() + 60
        while token is None and \
                owner._pool.status()["workers_connected"] < count:
            assert time.monotonic() < deadline, "remote workers never joined"
            time.sleep(0.01)
        yield processes
    finally:
        for process in processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


def stats_snapshot(stats):
    return (stats.delivered_per_host, stats.dropped, stats.total,
            stats.packet_in_count, stats.flow_mod_count,
            stats.packet_out_count, stats.destinations)


def report_snapshot(report):
    rows = []
    for result in report.results:
        rows.append((result.candidate.description, result.candidate.tag,
                     result.effective, result.accepted, result.ks,
                     result.notes, stats_snapshot(result.stats)))
    return (stats_snapshot(report.baseline), tuple(rows),
            report.packet_count)


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


def assert_matches_serial(scheduler, scenario, candidates, expected):
    """The one parity body: ``evaluate_all`` through ``scheduler`` equals
    the serial reference, and the fabric needed no recovery to get there."""
    report = Backtester(scenario, ks_threshold=scenario.ks_threshold
                        ).evaluate_all(candidates, scheduler=scheduler)
    assert report_snapshot(report) == expected
    assert not scheduler.transport.last_fault_stats.any()


@pytest.mark.parametrize("name", SCENARIOS)
def test_inprocess_transport_matches_serial(scenarios, serial_snapshots,
                                            candidate_sets, name):
    with Scheduler(transport="inprocess") as scheduler:
        assert_matches_serial(scheduler, scenarios[name],
                              candidate_sets[name], serial_snapshots[name])


@pytest.mark.parametrize("name", SCENARIOS)
def test_spawn_transport_matches_serial(scenarios, serial_snapshots,
                                        candidate_sets, spawn_scheduler,
                                        name):
    assert spawn_scheduler.transport.name == "spawn"
    assert_matches_serial(spawn_scheduler, scenarios[name],
                          candidate_sets[name], serial_snapshots[name])


@pytest.mark.parametrize("name", SCENARIOS)
def test_socket_transport_matches_serial(scenarios, serial_snapshots,
                                         candidate_sets, socket_scheduler,
                                         name):
    assert socket_scheduler.transport.name == "socket"
    assert_matches_serial(socket_scheduler, scenarios[name],
                          candidate_sets[name], serial_snapshots[name])


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("transport", ["inprocess", "spawn", "socket"])
def test_transport_matches_serial_under_an_abort_policy(
        request, scenarios, candidate_sets, transport, name):
    """The backtester's abort policy crosses the job wire: every transport
    cuts each replay at the same check points, and aborts a flooder (Q1's,
    Q4's packet-out-only repair) at the same packet, as the serial path."""
    scenario = scenarios[name]
    candidates = candidate_sets[name]
    if name == "Q1":
        candidates = [*candidates, flooding_candidate()]
    knobs = dict(max_packet_in_growth=1.5,
                 abort_policy=EarlyAbortPolicy(check_every=8,
                                               min_fraction=0.1))
    serial = Backtester(scenario, **knobs).evaluate_all(candidates)
    with contextlib.ExitStack() as stack:
        if transport == "inprocess":
            scheduler = stack.enter_context(Scheduler(transport="inprocess"))
        else:
            scheduler = request.getfixturevalue(f"{transport}_scheduler")
        report = Backtester(scenario, **knobs).evaluate_all(
            candidates, scheduler=scheduler)
    assert report_snapshot(report) == report_snapshot(serial)
    assert not scheduler.transport.last_fault_stats.any()
    if name == "Q1":
        assert report.results[-1].notes[-1].startswith("aborted after")


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

    def spy(self, backtester, candidates, events):
        used.append(self.transport.name)
        return run(self, backtester, candidates, events)

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


def test_abort_policy_off_is_bit_identical(scenarios, serial_snapshots,
                                           candidate_sets):
    """No policy, no deviation: the fabric with abort disabled reproduces
    the serial report exactly (this is what the parity tests above rely
    on)."""
    scenario = scenarios["Q3"]
    with Scheduler(transport="inprocess") as scheduler:
        report = Backtester(
            scenario, ks_threshold=scenario.ks_threshold).evaluate_all(
                candidate_sets["Q3"], scheduler=scheduler)
    assert report_snapshot(report) == serial_snapshots["Q3"]


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
    rebuilds the listener and spawns fresh workers, instead of hanging
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
