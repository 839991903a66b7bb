"""CLI telemetry: --trace/--stats flags, trace/stats/events subcommands."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace


def test_repair_trace_flag_writes_valid_chrome_trace(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["repair", "q1", "--max-candidates", "4", "--quiet",
                 "--trace", str(out)]) == 0
    payload = json.loads(out.read_text())
    info = validate_chrome_trace(payload)
    assert info["span_count"] > 0
    assert {"session", "stage.backtest"} <= set(info["names"])
    assert payload["otherData"]["trace_id"]


def test_trace_subcommand_reports_span_table(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "q1", "--max-candidates", "4", "--quiet",
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "spans over" in stdout
    assert "stage.backtest" in stdout
    validate_chrome_trace(json.loads(out.read_text()))


def test_trace_subcommand_json_summary(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "q1", "--max-candidates", "4", "--quiet",
                 "--out", str(out), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["file"] == str(out)
    assert summary["spans"] > 0
    assert summary["trace_id"]


def test_stats_subcommand_prints_prometheus_text(capsys):
    assert main(["stats", "q1", "--max-candidates", "4", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE candidates_backtested counter" in out
    assert "# TYPE stage_seconds histogram" in out
    assert "engine_fixpoints" in out


def test_stats_subcommand_json_snapshot(capsys):
    assert main(["stats", "q1", "--max-candidates", "4", "--quiet",
                 "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert {name for name, _l, _v in snapshot["counters"]} >= {
        "candidates_backtested", "engine_fixpoints"}


def test_stats_file_output(tmp_path, capsys):
    stats = tmp_path / "metrics.txt"
    assert main(["repair", "q1", "--max-candidates", "4", "--quiet",
                 "--stats", str(stats)]) == 0
    assert "# TYPE" in stats.read_text()


def test_profile_flag_prints_stage_tables(capsys):
    assert main(["repair", "q1", "--max-candidates", "4",
                 "--profile"]) == 0
    err = capsys.readouterr().err
    assert "-- profile: backtest" in err
    assert "cumulative" in err


def test_events_summarize_tables(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["repair", "q1", "--max-candidates", "6", "--quiet",
                 "--trace", str(tmp_path / "t.json"),
                 "--events", str(log)]) == 0
    capsys.readouterr()
    assert main(["events", "summarize", str(log)]) == 0
    out = capsys.readouterr().out
    assert "== session 1: Q1 [trace " in out
    assert "stage timing:" in out
    assert "backtest" in out
    assert "slowest candidates:" in out
    assert "candidates:" in out


def test_events_summarize_json(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["repair", "q1", "--max-candidates", "4", "--quiet",
                 "--events", str(log)]) == 0
    capsys.readouterr()
    assert main(["events", "summarize", str(log), "--json"]) == 0
    sessions = json.loads(capsys.readouterr().out)
    assert len(sessions) == 1
    summary = sessions[0]
    assert summary["scenario"] == "Q1"
    assert [s["stage"] for s in summary["stages"]] == [
        "diagnose", "generate", "backtest", "rank"]
    assert summary["candidates"]
    assert all(c["elapsed_seconds"] >= 0 for c in summary["candidates"])


def test_events_summarize_missing_file(capsys):
    assert main(["events", "summarize", "/no/such/file.jsonl"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_events_summarize_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["events", "summarize", str(empty)]) == 2


@pytest.mark.parametrize("line, message", [
    ("[1]", "event wire must be an object, not [1]"),
    ('{"kind": "stage_finished", "elapsed_seconds": "slow"}',
     "key 'elapsed_seconds' must be a number, not 'slow'"),
    ('{"kind": "backtest_progress", "ks_statistic": "0.1"}',
     "key 'ks_statistic' must be a number, not '0.1'"),
    ('{"kind": "stage_finished", "stage": "rank"', "not valid JSON"),
    ('{"kind": "no_such_event"}', "kind 'no_such_event' is not one of"),
], ids=["not-an-object", "string-seconds", "string-ks", "truncated",
        "unknown-kind"])
def test_events_summarize_bad_line_is_named(tmp_path, capsys, line, message):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"kind": "session_started", "scenario": "Q1"}\n\n'
                   + line + "\n")
    assert main(["events", "summarize", str(log)]) == 2
    err = capsys.readouterr().err
    assert f"malformed event log {log}: line 3: " in err and message in err


def test_telemetry_off_by_default():
    """Without a telemetry flag the session constructs no telemetry."""
    from repro.cli import _config_from_args, build_parser
    args = build_parser().parse_args(["repair", "q1", "--quiet"])
    config = _config_from_args(args)
    assert config.telemetry is None
    traced = build_parser().parse_args(
        ["repair", "q1", "--quiet", "--trace", "x.json"])
    assert _config_from_args(traced).telemetry is not None
