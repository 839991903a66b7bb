"""Telemetry wired through the repair pipeline: spans, events, identity.

The core contract — telemetry observes, never perturbs: with telemetry on,
the pipeline produces the bit-identical report it produces with telemetry
off, and with telemetry off it constructs nothing.
"""

import pytest

from repro.api import RepairConfig, RepairSession, TelemetryConfig
from repro.backtest import EarlyAbortPolicy
from repro.obs import Telemetry, validate_chrome_trace


def result_rows(report):
    return [(r.candidate.description, r.accepted, r.effective,
             r.ks.statistic, r.notes) for r in report.backtest.results]


@pytest.fixture(scope="module")
def traced_session():
    config = RepairConfig.for_scenario(
        "Q1", telemetry=TelemetryConfig(slice_packets=10, profile=True))
    session = RepairSession(config)
    report = session.run()
    return session, report


def test_disabled_telemetry_constructs_nothing():
    session = RepairSession(RepairConfig.for_scenario("Q1"))
    assert session.telemetry is None
    assert session.events.stamp is None
    # The disabled knob also maps to None (not a dead bundle).
    assert RepairConfig.for_scenario(
        "Q1", telemetry=TelemetryConfig(enabled=False)).make_telemetry() is None


def test_reports_bit_identical_with_telemetry_on(traced_session):
    _, traced_report = traced_session
    plain_report = RepairSession(RepairConfig.for_scenario("Q1")).run()
    assert result_rows(traced_report) == result_rows(plain_report)


def test_session_span_hierarchy(traced_session):
    session, _ = traced_session
    spans = session.telemetry.tracer.finished
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    assert by_name["session"][0]["span_id"] == "1"
    stages = sorted(span["name"] for span in spans
                    if span["name"].startswith("stage."))
    assert stages == ["stage.backtest", "stage.diagnose",
                      "stage.generate", "stage.rank"]
    for span in spans:
        if span["name"].startswith("stage."):
            assert span["parent_id"] == "1"
    # Candidate spans nest under the backtest stage, replays under them.
    backtest_id = next(span["span_id"] for span in spans
                       if span["name"] == "stage.backtest")
    candidates = by_name["candidate"]
    assert candidates
    assert all(span["parent_id"] == backtest_id for span in candidates)
    candidate_ids = {span["span_id"] for span in candidates}
    assert all(span["parent_id"] in candidate_ids
               for span in by_name["replay"])
    slice_parents = {span["parent_id"] for span in by_name["replay.slice"]}
    assert slice_parents <= {span["span_id"] for span in by_name["replay"]}


def test_chrome_export_of_full_run_validates(traced_session):
    session, _ = traced_session
    info = validate_chrome_trace(session.telemetry.chrome_trace())
    assert info["span_count"] == len(session.telemetry.tracer.finished)


def test_events_carry_trace_and_span_ids(traced_session):
    session, _ = traced_session
    telemetry = session.telemetry
    history = session.events.history
    assert history
    assert all(e.trace_id == telemetry.trace_id for e in history)
    stage_started = [e for e in history if e.kind == "stage_started"]
    # Stage events fire inside the stage span, so they carry its id.
    stage_ids = {span["attrs"].get("stage"): span["span_id"]
                 for span in telemetry.tracer.finished
                 if span["name"].startswith("stage.")}
    for event in stage_started:
        assert event.span_id == stage_ids[event.stage]


def test_metrics_consolidate_pipeline_counters(traced_session):
    session, _ = traced_session
    snapshot = session.telemetry.metrics.snapshot()
    counters = {name for name, _labels, _value in snapshot["counters"]}
    assert {"candidates_backtested", "engine_fixpoints", "rules_fired",
            "tuples_derived", "packets_replayed", "plan_cache_hits",
            "candidates_vetoed", "index_materializations"} <= counters
    histograms = {name for name, _labels, _payload in snapshot["histograms"]}
    assert {"stage_seconds", "candidate_replay_seconds"} <= histograms
    gauges = {name for name, _labels, _value in snapshot["gauges"]}
    assert "packets_replayed_per_second" in gauges


def test_stage_profiles_captured(traced_session):
    session, _ = traced_session
    profiles = session.telemetry.profiles
    assert set(profiles) == {"diagnose", "generate", "backtest", "rank"}
    assert "cumulative" in profiles["backtest"]


def test_slice_spans_do_not_change_results():
    """Chunked replay (slice spans) is the same execution as one-shot."""
    sliced = RepairSession(RepairConfig.for_scenario(
        "Q1", telemetry=TelemetryConfig(slice_packets=3))).run()
    plain = RepairSession(RepairConfig.for_scenario("Q1")).run()
    assert result_rows(sliced) == result_rows(plain)


def test_trace_fixpoints_produces_engine_spans():
    config = RepairConfig.for_scenario(
        "Q1", max_candidates=2,
        telemetry=TelemetryConfig(trace_fixpoints=True))
    session = RepairSession(config)
    traced_report = session.run()
    spans = session.telemetry.tracer.finished
    fixpoints = [span for span in spans if span["name"] == "engine.fixpoint"]
    assert fixpoints
    assert all("table" in span["attrs"] for span in fixpoints)
    # The engine's traced insert path derives what the plain one does.
    plain_report = RepairSession(
        RepairConfig.for_scenario("Q1", max_candidates=2)).run()
    assert result_rows(traced_report) == result_rows(plain_report)


def test_telemetry_config_wire_round_trip():
    config = RepairConfig.for_scenario(
        "Q1", telemetry=TelemetryConfig(slice_packets=5, profile=True))
    rebuilt = RepairConfig.from_json(config.to_json())
    assert rebuilt.telemetry == config.telemetry
    assert RepairConfig.from_json(
        RepairConfig.for_scenario("Q1").to_json()).telemetry is None


def test_local_workers_spans_stitch(monkeypatch):
    """workers>1 without a transport runs on the spawn fleet of the config's
    gated scheduler; the workers' candidate spans stitch under its
    ``fabric.job``."""
    import repro.backtest.replay as replay_module
    from repro.api import RepairConfig
    from repro.backtest import Backtester
    from repro.scenarios import build_scenario
    scenario = build_scenario("Q1")
    from repro.repair import ChangeConstant, RepairCandidate
    candidates = [
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                        cost=1.0, description="c0"),
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 4),),
                        cost=1.0, description="c1"),
    ]
    telemetry = Telemetry()
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    # Open the min-work gate: send 2 tiny items through the fleet anyway.
    monkeypatch.setattr(replay_module, "PARALLEL_MIN_SECONDS", 0.0)
    backtester.telemetry = telemetry
    with telemetry.span("session"), \
            RepairConfig(workers=2).make_scheduler() as scheduler:
        backtester.evaluate_all(candidates, scheduler=scheduler)
    spans = telemetry.tracer.finished
    [job] = [span for span in spans if span["name"] == "fabric.job"]
    assert job["attrs"]["transport"] == "spawn"
    item_spans = [span for span in spans if span["name"] == "candidate"]
    assert {span["span_id"] for span in item_spans} == \
        {f"{job['span_id']}.c0", f"{job['span_id']}.c1"}
    assert {span["trace_id"] for span in spans} == {telemetry.trace_id}
    validate_chrome_trace(telemetry.chrome_trace())


@pytest.mark.parametrize("knobs", [
    dict(abort=EarlyAbortPolicy(check_every=8, min_fraction=0.1),
         max_packet_in_growth=1.5),
    dict(multiquery=True),
    dict(multiquery=True, max_packet_in_growth=1.5,
         abort=EarlyAbortPolicy(check_every=8, min_fraction=0.1)),
], ids=["abort", "multiquery", "multiquery-abort"])
def test_every_replay_is_traced(knobs):
    """Replays under an abort policy or through the shared trunk used to
    vanish from the trace: no ``replay`` span, no ``packets_replayed``.
    Every replayed (non-vetoed) candidate has exactly one ``replay`` span
    whose ``packets`` is what was actually replayed — the prefix length
    when aborted — and telemetry still changes no report bit."""
    config = RepairConfig.for_scenario("Q1", telemetry=TelemetryConfig(),
                                       **knobs)
    session = RepairSession(config)
    report = session.run()
    plain = RepairSession(config.with_updates(telemetry=None)).run()
    assert result_rows(report) == result_rows(plain)
    replayed = [result for result in report.backtest.results
                if not any(note.startswith("vetoed") for note in result.notes)]
    aborted = [result for result in replayed
               if any(note.startswith("aborted") for note in result.notes)]
    assert bool(aborted) == ("abort" in knobs)
    assert all(result.stats.total < report.backtest.packet_count
               for result in aborted)
    spans = session.telemetry.tracer.finished
    candidate_spans = sorted(
        (span for span in spans if span["name"] == "candidate"),
        key=lambda span: span["attrs"]["index"])
    assert len(candidate_spans) == len(replayed)
    for span, result in zip(candidate_spans, replayed):
        [replay] = [child for child in spans if child["name"] == "replay"
                    and child["parent_id"] == span["span_id"]]
        assert replay["attrs"]["packets"] == result.stats.total
    counters = {name: value for name, _labels, value
                in session.telemetry.metrics.snapshot()["counters"]}
    assert counters["packets_replayed"] == \
        sum(result.stats.total for result in replayed)
