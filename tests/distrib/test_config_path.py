"""One way to run a backtest job: a config reaches the fabric only through
``RepairConfig.make_scheduler``, and progress reaches the session only as
events.

* ``workers > 1`` with no ``transport`` gets a gated spawn scheduler built
  from the whole config: its transport options (a fault plan here) and the
  session's event bus;
* every path — serial, ``inprocess``, ``spawn`` on two workers, and
  ``workers=2`` with the min-work gate opened — publishes the same
  ``backtest_progress`` stream.
"""

import collections

import pytest

from repro.api import EventBus, RepairConfig, RepairSession
from repro.backtest import replay
from repro.distrib import FaultPlan, Transport, close_parked_fleets
from repro.repair import reset_candidate_ids


@pytest.fixture(autouse=True)
def no_idle_fleet():
    close_parked_fleets()
    yield
    close_parked_fleets()


def session(config):
    """Run ``config`` as a session on a capturing bus: (report, bus)."""
    reset_candidate_ids()
    bus = EventBus()
    return RepairSession(config, events=bus).run(), bus


def test_workers_without_a_transport_honour_the_whole_config(monkeypatch):
    """The fleet gets the configured fault plan, and the session hears
    about the recovery: the killed worker's in-flight item is retried on a
    survivor or a respawn, so every row equals the serial run's."""
    monkeypatch.setattr(replay, "PARALLEL_MIN_SECONDS", 0.0)
    plan = {"seed": 0,
            "actions": [{"kind": "kill", "worker": 0, "after_items": 0}]}
    plans = []
    run_job = Transport.run_job

    def recording_run_job(transport, job_wire, on_result):
        plans.append(transport.fault_plan)
        return run_job(transport, job_wire, on_result)

    monkeypatch.setattr(Transport, "run_job", recording_run_job)
    config = RepairConfig.for_scenario(
        "Q1", workers=2, transport_options={"fault_plan": plan})
    report, bus = session(config)
    serial, _ = session(RepairConfig.for_scenario("Q1"))

    assert plans == [FaultPlan.from_wire(plan)]
    (stats,) = bus.of_kind("fabric_fault_stats")
    assert stats.worker_restarts >= 1
    assert stats.job_retries >= 1 and "worker-crash" in stats.retry_reasons
    assert stats.quarantined == 0
    assert bus.of_kind("candidate_quarantined") == []

    def rows(result_report):
        return [(r.candidate.description, r.effective, r.accepted,
                 r.ks.statistic, r.notes)
                for r in result_report.backtest.results]

    assert rows(report) == rows(serial)


PATHS = {
    "serial": {},
    "inprocess": {"transport": "inprocess"},
    "spawn": {"transport": "spawn", "workers": 2},
    "workers2": {"workers": 2},
}


@pytest.mark.parametrize("name", ["Q1", "Q4"])
def test_one_progress_stream_on_every_path(name, monkeypatch):
    """Serial, ``inprocess``, ``spawn`` with 2 workers and ``workers=2`` with
    the gate opened publish the same ``(done, total)`` sequence and the same
    multiset of per-candidate verdicts (completion order may differ on a
    fleet; ``elapsed_seconds`` is wall time)."""
    monkeypatch.setattr(replay, "PARALLEL_MIN_SECONDS", 0.0)
    streams = {}
    for path, knobs in PATHS.items():
        _, bus = session(RepairConfig.for_scenario(
            name, max_candidates=14, **knobs))
        progress = bus.of_kind("backtest_progress")
        streams[path] = (
            [(event.done, event.total) for event in progress],
            collections.Counter(
                (event.description, event.accepted, event.effective,
                 event.ks_statistic, event.aborted) for event in progress))
    assert streams["serial"][0], "the serial run published no progress"
    for path in PATHS:
        assert streams[path] == streams["serial"], path
