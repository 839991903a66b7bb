"""RepairSession: construction-path parity, events, resumability.

The parity tests compare independent ways of arriving at the same repair
run.  The reference is the *legacy construction path*: the caller builds a
live scenario object and hands it to the session, and the config carries no
:class:`ScenarioSpec` at all.  Against it stand the declarative paths —
a spec resolved through the registry, a spec that went through JSON, a
2-worker scheduler that ships the spec to workers, and the multi-query
backtester — which must all report the same rows.
"""

import io

import pytest

from repro.api import (STEPS, EventBus, JsonlEventWriter, RepairConfig,
                       RepairSession, SessionEvent)
from repro.scenarios import build_q1, build_scenario


def report_rows(report):
    """Everything observable about a report except wall-clock timings and
    candidate tags (``tests/meta/test_candidate_numbering.py`` holds the
    tags of repeated runs)."""
    return [
        (r.candidate.description, r.candidate.cost,
         r.ks.statistic, r.effective, r.accepted, r.notes)
        for r in report.backtest.results
    ]


def live_object_report(scenario, **knobs):
    """The reference: no spec in the config, the scenario object passed in."""
    config = RepairConfig(**knobs)
    assert config.scenario is None
    return RepairSession(config, scenario=scenario).run()


@pytest.fixture(scope="module")
def legacy_report():
    return live_object_report(build_q1(), max_candidates=14)


@pytest.fixture(scope="module")
def session_report():
    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    return RepairSession(config).run()


def test_session_matches_legacy_debugger(legacy_report, session_report):
    assert report_rows(session_report) == report_rows(legacy_report)
    assert session_report.scenario_name == legacy_report.scenario_name
    assert session_report.symptom == legacy_report.symptom
    assert ([r.candidate.description for r in session_report.suggestions()]
            == [r.candidate.description for r in legacy_report.suggestions()])
    assert session_report.counts() == legacy_report.counts()


@pytest.mark.parametrize("scenario", ["Q2", "Q3", "Q4", "Q5"])
def test_session_matches_legacy_on_all_scenarios(scenario):
    """A JSON-round-tripped spec reproduces the live-object report."""
    legacy = live_object_report(build_scenario(scenario), max_candidates=8)
    config = RepairConfig.from_json(
        RepairConfig.for_scenario(scenario, max_candidates=8).to_json())
    report = RepairSession(config).run()
    assert report_rows(report) == report_rows(legacy)
    assert report.counts() == legacy.counts()


@pytest.mark.parametrize("transport", ["inprocess", "spawn"])
def test_session_matches_legacy_on_2worker_scheduler(legacy_report, transport):
    """Two workers rebuilding the scenario from its spec agree with the
    serial run over the caller's own scenario object."""
    config = RepairConfig.for_scenario("Q1", max_candidates=14,
                                       transport=transport, workers=2)
    report = RepairSession(config).run()
    assert report_rows(report) == report_rows(legacy_report)


def test_stepwise_run_until_then_backtest():
    """Diagnose, generate and backtest as three separate calls."""
    config = RepairConfig.for_scenario("Q1", max_candidates=6)
    session = RepairSession(config)
    session.run(until="diagnose")
    assert session.history is not None and session.exploration is None
    session.run(until="generate")
    exploration = session.exploration
    assert 0 < len(exploration.candidates) <= 6
    backtester = config.make_backtester(session.scenario)
    report = backtester.evaluate_all(exploration.candidates)
    assert len(report.results) == len(exploration.candidates)


def test_event_stream_structure():
    config = RepairConfig.for_scenario("Q1", max_candidates=6)
    session = RepairSession(config)
    session.run()
    history = session.events.history
    kinds = [event.kind for event in history]
    assert kinds[0] == "session_started"
    assert kinds[-1] == "session_finished"
    stage_starts = [e.stage for e in session.events.of_kind("stage_started")]
    assert stage_starts == ["diagnose", "generate", "backtest", "rank"]
    assert stage_starts == [e.stage for e in
                            session.events.of_kind("stage_finished")]
    found = session.events.of_kind("candidate_found")
    progress = session.events.of_kind("backtest_progress")
    generated = len(session.exploration.candidates)
    assert [e.index for e in found] == list(range(1, generated + 1))
    assert [e.done for e in progress] == list(range(1, generated + 1))
    finished = history[-1]
    assert finished.generated == generated


def test_events_round_trip_as_jsonl():
    config = RepairConfig.for_scenario("Q1", max_candidates=4)
    bus = EventBus()
    stream = io.StringIO()
    bus.subscribe(JsonlEventWriter(stream))
    RepairSession(config, events=bus).run()
    lines = [line for line in stream.getvalue().splitlines() if line]
    assert len(lines) == len(bus.history)
    for line, original in zip(lines, bus.history):
        assert SessionEvent.from_json(line) == original


def test_broken_subscriber_does_not_kill_run():
    config = RepairConfig.for_scenario("Q1", max_candidates=4)
    bus = EventBus()

    def broken(event):
        raise RuntimeError("observer crashed")

    bus.subscribe(broken)
    report = RepairSession(config, events=bus).run()
    assert report is not None
    assert bus.subscriber_errors


def test_partial_run_and_resume():
    config = RepairConfig.for_scenario("Q1", max_candidates=6)
    session = RepairSession(config)
    assert session.run(until="generate") is None
    assert session.backtest is None
    exploration = session.exploration
    report = session.run()
    assert report is not None
    # Resuming reuses the earlier steps' outputs instead of recomputing them.
    assert session.exploration is exploration
    stage_starts = [e.stage for e in session.events.of_kind("stage_started")]
    assert stage_starts == ["diagnose", "generate", "backtest", "rank"]


def test_run_until_completed_stage_stays_partial():
    config = RepairConfig.for_scenario("Q1", max_candidates=4)
    session = RepairSession(config)
    session.run(until="generate")
    # Repeating the partial run must NOT fall through to the later steps.
    session.run(until="generate")
    assert list(session.stage_seconds) == ["diagnose", "generate"]
    assert session.backtest is None


def test_run_until_takes_the_four_step_names():
    """``run(until=)`` resumes over the four steps and nothing else; the
    report exists once Rank has run, and holds Rank's list."""
    assert STEPS == ("diagnose", "generate", "backtest", "rank")
    session = RepairSession(RepairConfig.for_scenario("Q1", max_candidates=4))
    for bad in ("genrate", "Rank", "", "report"):
        with pytest.raises(ValueError, match="diagnose, generate, backtest, "
                                             "rank"):
            session.run(until=bad)
    assert session.stage_seconds == {}
    for step in STEPS[:-1]:
        assert session.run(until=step) is None
        assert list(session.stage_seconds) == list(STEPS[:STEPS.index(step)
                                                         + 1])
    report = session.run(until="rank")
    assert report is not None and session.suggestions is not None
    assert report.suggestions() == session.suggestions
    assert report.counts() == (4, len(session.suggestions))
    assert session.run(until="diagnose") is not None
    assert [e.stage for e in session.events.of_kind("stage_started")] == \
        list(STEPS)
    assert len(session.events.of_kind("session_finished")) == 1
