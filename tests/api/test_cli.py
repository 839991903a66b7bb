"""CLI smoke tests: `python -m repro` subcommands run in-process."""

import json

import pytest

from repro.cli import main


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        assert name in out


def test_scenarios_list_json(capsys):
    assert main(["scenarios", "list", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert [entry["name"] for entry in entries] == [
        "Q1", "Q2", "Q3", "Q4", "Q5"]
    assert all(entry["trace_packets"] > 0 for entry in entries)


def test_repair_q1_json(capsys):
    assert main(["repair", "q1", "--max-candidates", "14", "--json",
                 "--quiet"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "Q1"
    assert report["generated"] == 14
    assert report["surviving"] >= 1
    assert report["suggestions"]
    assert any(result["accepted"] for result in report["results"])


def test_repair_renders_live_progress(capsys):
    assert main(["repair", "q1", "--max-candidates", "4"]) == 0
    captured = capsys.readouterr()
    assert "Operator's pick:" in captured.out
    assert "backtest 4/4" in captured.err     # live renderer on stderr


def test_backtest_prints_verdict_table(capsys):
    assert main(["backtest", "q1", "--max-candidates", "6", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "6 candidates backtested" in out
    assert "accepted" in out


def test_repair_with_config_file_and_events_log(tmp_path, capsys):
    from repro.api import RepairConfig
    config_path = tmp_path / "run.json"
    config_path.write_text(
        RepairConfig.for_scenario("Q1", max_candidates=5).to_json())
    events_path = tmp_path / "events.jsonl"
    assert main(["repair", "q1", "--config", str(config_path),
                 "--events", str(events_path), "--json", "--quiet"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["generated"] == 5
    lines = events_path.read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds[0] == "session_started"
    assert kinds[-1] == "session_finished"
    assert "backtest_progress" in kinds


def test_repair_exit_code_when_nothing_survives(capsys):
    # An impossible KS threshold rejects every candidate.
    assert main(["repair", "q1", "--max-candidates", "4",
                 "--ks-threshold", "-1", "--quiet"]) == 2
    assert "no repair survived" in capsys.readouterr().err
    # --json signals the same outcome through the exit code.
    assert main(["repair", "q1", "--max-candidates", "4",
                 "--ks-threshold", "-1", "--quiet", "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["surviving"] == 0


def test_config_file_can_drive_the_scenario(tmp_path, capsys):
    from repro.api import RepairConfig
    config_path = tmp_path / "q2.json"
    config_path.write_text(
        RepairConfig.for_scenario("Q2", max_candidates=4).to_json())
    # No positional scenario: the config's one drives the run.
    assert main(["repair", "--config", str(config_path), "--json",
                 "--quiet"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == "Q2"


def test_missing_scenario_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["repair", "--quiet"])
    assert excinfo.value.code == 2
    assert "no scenario specified" in capsys.readouterr().err


@pytest.mark.parametrize("argv, problem", [
    (["repair", "q9"], "unknown scenario 'Q9'; registered: Q1, Q2, Q3, Q4, "
                       "Q5"),
    (["backtest", "q9"], "unknown scenario 'Q9'; registered: Q1, Q2, Q3, "
                         "Q4, Q5"),
    (["repair", "q1", "--max-candidates", "-3"],
     "config max_candidates must be >= 1, not -3"),
    (["backtest", "q1", "--trace-limit", "0"],
     "config trace_limit must be >= 1, not 0"),
    (["repair", "q1", "--workers", "-1"], "config workers must be >= 1, "
                                          "not -1")])
def test_a_config_that_cannot_run_is_one_line_and_exit_2(argv, problem,
                                                         capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--quiet"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"repro {argv[0]}: {problem}\n"
    assert captured.out == ""


def test_boolean_flags_override_config_both_ways(tmp_path):
    from repro.cli import _config_from_args, build_parser
    from repro.api import RepairConfig
    parser = build_parser()
    for stored, flag in ((True, "--no-multiquery"), (False, "--multiquery")):
        config_path = tmp_path / f"run_{stored}.json"
        config_path.write_text(RepairConfig.for_scenario(
            "Q1", multiquery=stored).to_json())
        args = parser.parse_args(["repair", "q1", "--config",
                                  str(config_path), flag])
        assert _config_from_args(args).multiquery is not stored


@pytest.mark.parametrize("flag", ["--warm", "--cold"])
def test_warm_engine_flags_are_gone(flag, capsys):
    from repro.cli import build_parser
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["repair", "q1", flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_q4_report_does_not_depend_on_the_hash_seed():
    """Reports are a pure function of (config, scenario): Q4's candidate
    that derives two equal-priority wildcard flow entries used to install
    them in set (hash) order, so one row's KS statistic flipped with
    PYTHONHASHSEED.  Fresh interpreters, because the seed is fixed at
    start-up."""
    import os
    import subprocess
    import sys

    import repro

    source_root = os.path.dirname(os.path.dirname(repro.__file__))

    def report_bytes(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                   PYTHONPATH=os.pathsep.join(
                       [source_root, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "repair", "q4", "--json",
             "--quiet"], env=env, check=True, capture_output=True,
            timeout=120).stdout
        wire = json.loads(out)
        del wire["timings"]
        return json.dumps(wire, sort_keys=True).encode()

    assert report_bytes(0) == report_bytes(3)
