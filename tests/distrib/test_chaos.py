"""Deterministic chaos suite for the fault-tolerant fabric.

Acceptance contract (ISSUE 9): for every fault class a :class:`FaultPlan`
can script — worker crash, hang past the per-item deadline,
corrupt/truncated frames, poison candidates — a run
completes without raising and the final report is **bit-identical to the
fault-free run** modulo the deterministic quarantine rows.  That a
fault-free run is bit-identical on every transport, with no recovery
action fired, is the path axis of the contract table
(``tests/contracts``), which also holds a run under a killed worker to the
serial digest.

The crash tests double as the regression for the old failure mode where
a dead worker stalled the job until the 600s ``result_timeout`` and then
killed the whole run.

``"spawn"`` and ``"socket"`` are two names for one pool-backed transport
(:class:`repro.distrib.WorkerPool`), so each fault class is exercised
once, under whichever name it was first pinned; the pool's own mechanics
(every failure reason, budgeted respawn, frame hardening) are
driven without a scenario in ``test_pool.py``.
"""

import time

import pytest

from repro.api import EventBus
from repro.backtest import Backtester
from repro.distrib import FaultAction, FaultPlan, Scheduler
from repro.distrib import faults
from repro.obs import Telemetry
from repro.repair import ChangeConstant, DeleteSelection, RepairCandidate
from repro.scenarios import build_scenario

from cases import report_snapshot, scenario_candidates


def q1_candidates():
    """Four healthy Q1 candidates: enough rows that 2 workers interleave."""
    return [
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                        cost=1.1, description="r7: Swi==2 -> Swi==3"),
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 4),),
                        cost=1.2, description="r7: Swi==2 -> Swi==4"),
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 5),),
                        cost=1.3, description="r7: Swi==2 -> Swi==5"),
        RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                        cost=2.0, description="r7: delete Swi==2"),
    ]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("Q1")


@pytest.fixture(scope="module")
def candidates(scenario):
    """One shared list: candidate ids/tags are instance-assigned and must
    match between the reference run and every chaos run."""
    return q1_candidates()


@pytest.fixture(scope="module")
def serial_snapshot(scenario, candidates):
    report = Backtester(scenario, ks_threshold=scenario.ks_threshold
                        ).evaluate_all(candidates)
    return report_snapshot(report)


def fabric_run(scenario, candidates, transport, *, workers=2,
               fault_plan=None, events=None, telemetry=None, **options):
    """One evaluate_all through the fabric; returns (report, fault stats)."""
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    if telemetry is not None:
        backtester.telemetry = telemetry
    with Scheduler(transport=transport, workers=workers,
                   fault_plan=fault_plan, events=events,
                   **options) as scheduler:
        report = backtester.evaluate_all(candidates, scheduler=scheduler)
        stats = scheduler.transport.last_fault_stats
    return report, stats


@pytest.fixture
def short_deadline(monkeypatch):
    """A 2 s per-item deadline floor: a Q1 candidate's baseline is
    milliseconds, so the floor is the deadline."""
    monkeypatch.setattr(faults, "DEADLINE_FLOOR_SECONDS", 2.0)


def assert_identical_modulo_quarantine(snapshot, reference, quarantined):
    """Bit-identical reports, except the given quarantined row indexes."""
    assert snapshot[0] == reference[0]            # baseline stats
    assert snapshot[2:] == reference[2:]          # counters, packet count
    assert len(snapshot[1]) == len(reference[1])
    for index, (row, expected) in enumerate(zip(snapshot[1], reference[1])):
        if index in quarantined:
            continue
        assert row == expected, f"row {index} diverged under chaos"


def quarantine_notes(report):
    """{row index: quarantine note} for every quarantined result."""
    out = {}
    for index, result in enumerate(report.results):
        notes = [n for n in result.notes if n.startswith("quarantined(")]
        if notes:
            assert len(notes) == 1                # exactly once per row
            out[index] = notes[0]
    return out


# ---------------------------------------------------------------------------
# Poison candidates: quarantine, not job death (Q1-Q5)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4", "Q5"])
def test_poison_candidate_quarantined_q1_to_q5(name):
    """A candidate that fails on every worker is quarantined after
    ``MAX_ATTEMPTS`` with a deterministic machine-readable row; every
    other row stays bit-identical to the fault-free run."""
    scenario = build_scenario(name)
    candidates = scenario_candidates(name)
    reference = report_snapshot(
        Backtester(scenario, ks_threshold=scenario.ks_threshold
                   ).evaluate_all(candidates))
    events = EventBus()
    plan = FaultPlan(actions=(FaultAction(kind="poison", index=1),))
    report, stats = fabric_run(scenario, candidates, "inprocess",
                               fault_plan=plan, events=events)
    assert report.vetoed_count == 0               # plan indexes == row indexes
    notes = quarantine_notes(report)
    assert notes == {1: "quarantined(worker-exception) after 3 attempts"}
    assert report.quarantined_count == 1
    assert len(report.results) == len(candidates)
    assert not report.results[1].accepted
    assert_identical_modulo_quarantine(report_snapshot(report), reference,
                                       quarantined={1})
    quarantined = events.of_kind("candidate_quarantined")
    assert [(e.index, e.reason, e.attempts) for e in quarantined] == \
        [(1, "worker-exception", 3)]
    (fault_event,) = events.of_kind("fabric_fault_stats")
    assert fault_event.quarantined == 1
    assert "worker-exception" in fault_event.retry_reasons
    assert stats.quarantined == 1


# ---------------------------------------------------------------------------
# Local fleet: crash, hang, dropped/delayed results, degradation
# ---------------------------------------------------------------------------


def test_spawn_worker_crash_recovers_promptly(scenario, candidates,
                                              serial_snapshot):
    """Regression for the 600s stall: a local worker that ``os._exit(1)``s
    mid-job is detected by its connection closing, its item retried with
    reason ``worker-crash`` (the pool launched that pid) and a respawn
    committed in the same step — with the *default* result_timeout, so
    finishing quickly proves prompt detection."""
    telemetry = Telemetry()
    events = EventBus()
    plan = FaultPlan(actions=(
        FaultAction(kind="kill", worker=0, after_items=0),))
    started = time.monotonic()
    report, stats = fabric_run(scenario, candidates, "spawn",
                               fault_plan=plan, events=events,
                               telemetry=telemetry)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"crash recovery took {elapsed:.1f}s"
    assert report_snapshot(report) == serial_snapshot
    assert report.quarantined_count == 0
    assert stats.worker_restarts >= 1
    assert stats.retries.get("worker-crash", 0) >= 1
    counters = {(name, tuple(tuple(kv) for kv in labels)): value
                for name, labels, value
                in telemetry.metrics.snapshot()["counters"]}
    assert counters.get(("fabric_worker_restarts", ())) >= 1
    assert counters.get(("fabric_job_retries",
                         (("reason", "worker-crash"),))) >= 1
    (fault_event,) = events.of_kind("fabric_fault_stats")
    assert fault_event.worker_restarts >= 1
    assert "worker-crash" in fault_event.retry_reasons


def test_spawn_hang_killed_at_deadline(scenario, candidates,
                                       serial_snapshot, short_deadline):
    """A wedged worker (sleeping far past the per-item soft deadline) is
    terminated and its item retried with reason ``deadline``."""
    plan = FaultPlan(actions=(
        FaultAction(kind="hang", worker=0, after_items=0, seconds=60.0),))
    report, stats = fabric_run(scenario, candidates, "spawn",
                               fault_plan=plan)
    assert report_snapshot(report) == serial_snapshot
    assert stats.retries.get("deadline", 0) >= 1


def test_spawn_dropped_and_delayed_results(scenario, candidates,
                                           serial_snapshot, short_deadline):
    """A silently swallowed result is recovered by the deadline; a merely
    delayed result needs no recovery at all."""
    plan = FaultPlan(actions=(
        FaultAction(kind="drop_result", worker=0, after_items=0),
        FaultAction(kind="delay_result", worker=1, after_items=0,
                    seconds=0.05),
    ))
    report, stats = fabric_run(scenario, candidates, "spawn",
                               fault_plan=plan)
    assert report_snapshot(report) == serial_snapshot
    assert stats.retries.get("deadline", 0) >= 1


def test_spawn_degrades_to_serial_drain(scenario, candidates,
                                        serial_snapshot):
    """Fleet gone, restart budget spent: the queue drains serially
    in-process and the downgrade is recorded instead of raised.  One
    worker at a time, each killed before its first item (a positional
    action without ``worker`` fires once on every fresh worker id): one
    crash per item of the first ``1 + RESTART_BUDGET``, none quarantined."""
    events = EventBus()
    telemetry = Telemetry()
    plan = FaultPlan(actions=(FaultAction(kind="kill", after_items=0),))
    report, stats = fabric_run(
        scenario, candidates, "spawn", workers=1,
        fault_plan=plan, events=events, telemetry=telemetry)
    assert report_snapshot(report) == serial_snapshot
    assert stats.degraded
    assert stats.worker_restarts == faults.RESTART_BUDGET
    assert stats.retries == {"worker-crash": 1 + faults.RESTART_BUDGET}
    assert stats.quarantined == 0
    (fault_event,) = events.of_kind("fabric_fault_stats")
    assert fault_event.degraded
    counters = {name for name, _labels, _value
                in telemetry.metrics.snapshot()["counters"]}
    assert "fabric_degraded" in counters


# ---------------------------------------------------------------------------
# Frame corruption
# ---------------------------------------------------------------------------


def test_socket_corrupt_frame_is_disconnect_with_requeue(
        scenario, candidates, serial_snapshot):
    """An undecodable length-prefixed frame is handled as a lost worker —
    counted in ``fabric_frame_errors``, item requeued — not a hard error."""
    plan = FaultPlan(actions=(
        FaultAction(kind="corrupt_frame", worker=0, after_items=0),))
    report, stats = fabric_run(scenario, candidates, "socket",
                               fault_plan=plan, result_timeout=120.0)
    assert report_snapshot(report) == serial_snapshot
    assert stats.frame_errors >= 1
    assert stats.retries.get("frame-error", 0) >= 1


def test_socket_truncated_frames_quarantine_after_retries(
        scenario, candidates, serial_snapshot):
    """A frame truncated mid-payload (partial recv at EOF) on *every*
    attempt of one item burns the item's whole retry budget and
    quarantines it with reason ``frame-error``; other items survive."""
    events = EventBus()
    plan = FaultPlan(actions=(
        FaultAction(kind="truncate_frame", index=0),))
    report, stats = fabric_run(scenario, candidates, "socket",
                               fault_plan=plan, events=events,
                               result_timeout=120.0)
    notes = quarantine_notes(report)
    assert notes == {0: "quarantined(frame-error) after 3 attempts"}
    assert report.quarantined_count == 1
    assert stats.frame_errors == 3
    assert_identical_modulo_quarantine(report_snapshot(report),
                                       serial_snapshot, quarantined={0})
    (quarantined,) = events.of_kind("candidate_quarantined")
    assert (quarantined.index, quarantined.reason) == (0, "frame-error")


def test_socket_degrades_when_fleet_unrecoverable(scenario, candidates,
                                                  serial_snapshot,
                                                  monkeypatch):
    """Without a restart budget the first crash leaves no worker."""
    monkeypatch.setattr(faults, "RESTART_BUDGET", 0)
    plan = FaultPlan(actions=(
        FaultAction(kind="kill", worker=0, after_items=0),))
    report, stats = fabric_run(scenario, candidates, "socket", workers=1,
                               fault_plan=plan, result_timeout=120.0)
    assert report_snapshot(report) == serial_snapshot
    assert stats.degraded
    assert stats.worker_restarts == 0


# ---------------------------------------------------------------------------
# Scheduler ordering under mixed outcomes (parity with the veto invariant)
# ---------------------------------------------------------------------------


def test_mixed_outcomes_stream_in_input_order(scenario, candidates,
                                              serial_snapshot):
    """Interleaved success / retry / quarantine across 2 workers: results
    come back in input order, one per candidate, and the retried item's
    row is bit-identical to the fault-free run."""
    events = EventBus()
    plan = FaultPlan(actions=(
        FaultAction(kind="poison", index=1),      # quarantined
        FaultAction(kind="raise", index=2),       # retried, then succeeds
    ))
    report, stats = fabric_run(scenario, candidates, "spawn",
                               fault_plan=plan, events=events,
                               result_timeout=120.0)
    assert len(report.results) == len(candidates)
    assert [r.candidate.description for r in report.results] == \
        [c.description for c in candidates]
    notes = quarantine_notes(report)
    assert set(notes) == {1}
    assert report.quarantined_count == 1
    assert_identical_modulo_quarantine(report_snapshot(report),
                                       serial_snapshot, quarantined={1})
    assert stats.retries.get("worker-exception", 0) >= 1
    progress = events.of_kind("backtest_progress")
    assert [e.done for e in progress] == [1, 2, 3, 4]
    quarantined = events.of_kind("candidate_quarantined")
    assert [e.index for e in quarantined] == [1]
