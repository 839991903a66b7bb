"""CLI smoke tests: `python -m repro` subcommands run in-process."""

import json

import pytest

from repro.api import RepairConfig
from repro.backtest import EarlyAbortPolicy
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
    assert set(report["timings"]) == {
        "history_lookups", "constraint_solving", "patch_generation",
        "replay", "total", "import_s"}
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
    # A KS threshold of 0 rejects every candidate that changes the traffic.
    assert main(["repair", "q1", "--max-candidates", "4",
                 "--ks-threshold", "0", "--quiet"]) == 2
    assert "no repair survived" in capsys.readouterr().err
    # --json signals the same outcome through the exit code.
    assert main(["repair", "q1", "--max-candidates", "4",
                 "--ks-threshold", "0", "--quiet", "--json"]) == 2
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


def test_a_config_file_naming_a_removed_knob_is_exit_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cost_overrides": {"change_constant": 0.1}}))
    with pytest.raises(SystemExit) as excinfo:
        main(["repair", "q1", "--config", str(path), "--quiet"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "repro repair: unknown config keys: ['cost_overrides']")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("config, problem", [
    ({"fault_tolerance": {"max_attempts": 1000000000, "job_deadline": -1.0}},
     "unknown config keys: ['fault_tolerance']"),
    # These two crashed with a traceback from the transport, exit 1.
    ({"transport": "inprocess", "transport_options": {"bogus": 1}},
     "unknown config transport_options keys: ['bogus']"),
    ({"transport_options": {"fault_plan": {"actions": [
        {"kind": "explode"}]}}},
     "config transport_options 'fault_plan': unknown fault kind 'explode'"),
    # These two crashed with a TypeError from the scenario's builder.
    ({"scenario": {"name": "Q1", "params": {"bogus": 1}}},
     "scenario Q1 has no parameter 'bogus'"),
    ({"scenario": {"name": "Q1", "params": {"s1_clients": "x"}}},
     "scenario Q1 parameter 's1_clients' must be int, not 'x'"),
    # These two ran: an empty-handed report, and a job beyond any fleet.
    ({"scenario": {"name": "Q1", "params": {"s1_clients": 150}}},
     "scenario Q1 parameter 's1_clients' must be within [2, 100], not 150"),
    ({"max_candidates": 10 ** 12},
     f"config max_candidates must be <= 1000, not {10 ** 12}"),
    # This one ran Diagnose and Generate, then exited 1 with a DistribError
    # traceback when the fleet was sized.
    ({"scenario": {"name": "Q1"}, "transport": "bogus"},
     "config transport must be one of ['inprocess', 'spawn', 'socket'] or "
     "null, not 'bogus'")],
    ids=["fault_tolerance", "unknown_option", "fault_plan",
         "scenario_param", "scenario_param_type", "scenario_size",
         "max_candidates", "transport"])
def test_a_config_file_setting_the_fleets_rule_is_exit_2(tmp_path, capsys,
                                                          config, problem):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as excinfo:
        main(["repair", "q1", "--config", str(path), "--quiet"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"repro repair: {problem}")
    assert captured.err.count("\n") == 1 and captured.out == ""


#: Every option of a run-shaped subcommand, in ``--help`` order.
RUN_FLAGS = ["--config", "--max-candidates", "--trace-limit",
             "--ks-threshold", "--max-packet-in-growth", "--workers",
             "--transport", "--fault-plan", "--abort-check-every",
             "--json", "--events", "--quiet", "--trace", "--stats",
             "--profile", "--trace-slices", "--trace-fixpoints"]


def test_the_run_flags_are_pinned():
    from repro import cli
    parsers = dict(_subcommand_parsers(cli.build_parser()))
    options = {words: [option for action in parsers[words]._actions
                       for option in action.option_strings]
               for words in (("repair",), ("backtest",), ("trace",),
                             ("stats",), ("submit",))}
    assert options[("repair",)] == ["-h", "--help"] + RUN_FLAGS
    for words, flags in options.items():
        assert flags[-len(RUN_FLAGS):] == RUN_FLAGS, words


def test_the_run_flags_fold_into_the_config():
    from repro import cli
    args = cli.build_parser().parse_args([
        "repair", "q1", "--max-candidates", "6", "--trace-limit", "90",
        "--ks-threshold", "0.2", "--max-packet-in-growth", "1.5",
        "--workers", "2", "--transport", "inprocess",
        "--abort-check-every", "8"])
    config = cli._fold_args(args)
    assert (config.max_candidates, config.trace_limit, config.ks_threshold,
            config.max_packet_in_growth, config.workers,
            config.transport) == (6, 90, 0.2, 1.5, 2, "inprocess")
    assert config.abort == EarlyAbortPolicy(check_every=8)
    unset = cli._fold_args(cli.build_parser().parse_args(["repair", "q1"]))
    assert unset == RepairConfig.for_scenario("q1")


@pytest.mark.parametrize("flag", ["--multiquery", "--no-multiquery"])
def test_multiquery_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["repair", "q1", flag])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_abort_ks_slack_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["repair", "q1", "--abort-ks-slack", "1.5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --abort-ks-slack" in \
        capsys.readouterr().err


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
        # The decomposition's import line: from the first line of
        # repro/__init__.py to repro.cli.main, in this fresh process.
        assert 0 < wire.pop("timings")["import_s"] < 30
        return json.dumps(wire, sort_keys=True).encode()

    assert report_bytes(0) == report_bytes(3)


def _subcommand_parsers(parser, prefix=()):
    """``(words, parser)`` of every runnable subcommand under ``parser``."""
    import argparse
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                nested = list(_subcommand_parsers(sub, prefix + (word,)))
                yield from nested or [(prefix + (word,), sub)]


def test_every_subcommand_dispatches_to_a_handler():
    """The parser names the handler of every subcommand but ``repair`` by
    its name in ``repro.cli_tools``, imported on dispatch; a typo there
    would fail only when somebody ran that subcommand."""
    from repro import cli, cli_tools
    handlers = dict(_subcommand_parsers(cli.build_parser()))
    assert {" ".join(words) for words in handlers} == {
        "repair", "backtest", "lint", "trace", "stats", "events summarize",
        "serve", "submit", "status", "scenarios list"}
    for words, parser in handlers.items():
        func = parser.get_default("func")
        if words == ("repair",):
            assert func is cli._cmd_repair
            continue
        assert isinstance(func, cli._Tool), words
        handler = func.resolve()
        assert callable(handler), words
        assert getattr(cli_tools, handler.__name__) is handler, words


def test_a_reader_that_goes_away_is_exit_1_without_a_traceback():
    """``repro repair q1 --json | head -c 20``: the reader closes the pipe
    before the report is written.  The report is dropped (stdout goes to
    devnull), the exit status is 1, and nothing lands on stderr — no
    traceback from the ``print`` and no "Exception ignored" from the flush
    at interpreter exit."""
    import os
    import subprocess
    import sys

    import repro

    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root, os.environ.get("PYTHONPATH", "")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "repair", "q1", "--max-candidates",
         "2", "--json", "--quiet"], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    process.stdout.close()
    try:
        _, stderr = process.communicate(timeout=120)
    finally:
        process.kill()
    assert b"Traceback" not in stderr and b"Exception ignored" not in stderr
    assert stderr == b""
    assert process.returncode == 1
