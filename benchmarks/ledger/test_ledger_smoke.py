"""Smoke test of the layer ledger (collected by the tier-1 run).

Runs the whole suite at ``--smoke`` sizes and checks the ledger's shape —
every declared metric, once, for every workload — never a timing.  The
unit tests pin the statistics the tables are built from.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import golden                                               # noqa: E402
import measure as m                                         # noqa: E402
from spans import Tracer                                    # noqa: E402
from workloads import WORKLOADS                             # noqa: E402

MANIFEST = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- measure() ---------------------------------------------------------------


def test_measure_median_and_quartiles():
    row = m.measure("x_s", "s", [9, 1, 8, 2, 7, 3, 6, 4, 5])
    assert (row.n, row.min, row.max) == (9, 1.0, 9.0)
    assert (row.q1, row.median, row.q3) == (2.5, 5.0, 7.5)
    assert row.tail is None              # nine samples have no tail to read
    single = m.measure("x_s", "s", [0.25])
    assert single.q1 == single.median == single.q3 == 0.25
    with pytest.raises(ValueError):
        m.measure("x_s", "s", [])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert m.tail_percentile(19) is None
    assert m.tail_percentile(40) == 75.0
    assert m.tail_percentile(100) == 90.0
    assert m.tail_percentile(240) == 95.0   # 12 beyond; p99 would leave 2
    assert m.tail_percentile(1000) == 99.0
    assert m.tail_percentile(10000) == 99.9
    row = m.measure("x_s", "s", range(1, 241))
    assert (row.tail_percentile, row.tail) == (95.0, 228.0)
    # Nearest rank: an observed sample, and the maximum on short lists.
    assert m.percentile(range(1, 9), 95.0) == 8
    assert m.percentile([5.0], 50.0) == 5.0


# -- spans -------------------------------------------------------------------


def test_span_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 21.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("api.session", op=7):          # 0 .. 10
        with tracer.span("api.diagnose"):           # 1 .. 2
            pass
        with tracer.span("api.backtest"):           # 3 .. 5
            pass
    with tracer.span("api.session", op=8):          # 20 .. 21
        pass
    assert tracer.seconds("api.session") == [10.0, 1.0]
    self_seconds = tracer.self_seconds()
    assert self_seconds["api.session"] == [7.0, 1.0]
    assert self_seconds["api.backtest"] == [2.0]
    # Children inherit the op id; parents are recorded by index.
    assert [s.op for s in tracer.spans] == [7, 7, 7, 8]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    tracer.record("service.session", 30.0, 31.5, op=9)
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == 5 and events[-1]["dur"] == pytest.approx(1.5e6)


# -- the declaration and the goldens ----------------------------------------


def test_manifest_names_units_and_workloads():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in MANIFEST[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(MANIFEST["per_layer"]) <= 128
    assert all(0 < metric["bound"] <= 0.25
               for metric in MANIFEST["end_to_end"])
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].WHY
               for w in MANIFEST["workloads"])


def test_goldens_pin_the_papers_claims():
    q1 = golden.load("cli_paper")["Q1"]["verdicts"]
    accepted = [description for description, _, ok in q1 if ok]
    assert golden.Q1_REFERENCE_REPAIR in accepted
    # "Repairs stay stable" under padding (Fig 10) and under trace growth.
    assert golden.load("program_heavy")["program_heavy"]["verdicts"] == q1
    assert golden.load("trace_heavy")["trace_heavy"]["verdicts"] == q1
    for name, module in WORKLOADS.items():
        for label, entry in golden.load(module.GOLDEN).items():
            assert set(entry["digests"]) == {str(s)
                                             for s in golden.PINNED_SEEDS}


def test_golden_check_reports_a_miss():
    expected = golden.load("cli_paper")
    wire = {"results": [{"description": d, "effective": e, "accepted": a}
                        for d, e, a in expected["Q5"]["verdicts"]],
            "timings": {"total": 1.0}}
    assert golden.check(expected, "Q5", 7, wire) == []
    assert golden.digest(wire) == golden.digest(dict(wire, timings={}))
    # A pinned seed also checks the digest; a flipped verdict is a diff.
    assert golden.check(expected, "Q5", 0, wire)
    wire["results"][0]["accepted"] = not wire["results"][0]["accepted"]
    problems = golden.check(expected, "Q5", 7, wire)
    assert problems and "#0" in problems[1]


# -- the suite at smoke sizes ------------------------------------------------


def test_smoke_suite_emits_every_declared_metric_once(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out),
         "--trace-out", str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text())
    assert set(document["host"]) == {"nproc", "cpu_model", "python",
                                     "platform", "dont_write_bytecode"}
    end_to_end = [metric["name"] for metric in MANIFEST["end_to_end"]]
    per_layer = [metric["name"] for metric in MANIFEST["per_layer"]]
    assert list(document["workloads"]) == list(WORKLOADS)
    traced = 0
    for name, entry in document["workloads"].items():
        assert sorted(entry["end_to_end"]["values"]) == sorted(end_to_end)
        assert entry["end_to_end"]["failed"] == 0
        assert entry["end_to_end"]["attempted"] >= 2
        assert isinstance(entry["load_average_1m"], float)
        assert entry["unscaled"] in (True, False)
        # The printed table: one row per metric in the workload's section.
        section = done.stdout.split(f"\n{name}: ")[1].split("\n\n")[0]
        for metric in MANIFEST["end_to_end"]:
            rows = [line for line in section.splitlines()
                    if line.split()[:2] == [metric["name"], metric["unit"]]]
            assert len(rows) == 1, (name, metric, rows)
        if "per_layer" in entry:
            traced += 1
            assert sorted(entry["per_layer"]["values"]) == sorted(per_layer)
            assert entry["per_layer"]["failed"] == 0
            for metric in MANIFEST["per_layer"]:
                rows = [line for line in section.splitlines()
                        if line.split()[:2] == [metric["name"],
                                                metric["unit"]]]
                assert len(rows) == 1, (name, metric, rows)
            spans = json.loads(
                (tmp_path / f"trace.{name}.json").read_text())["traceEvents"]
            assert {"api.session", "api.backtest", "sdn.forward",
                    "service.session"} <= {event["name"] for event in spans}
    assert traced == 1                   # smoke traces one workload
