"""The committed trajectories parse and name what the benchmark declares.

Two files at the repository root record what each performance change
measured.  ``BENCH_counts.json`` is the Python calls per repair stage, one
entry per change (``tests/perf/stage_counts.py --append``); an entry from
PR 41's on also splits each stage into cells by package, which sum to the
stage's count.
``BENCH_ledger.json`` is the benchmark's claim pairs: per change, workload
and end-to-end metric, the parent's and the change's median and quartiles
over alternating parent/change runs of ``benchmarks/ledger/run.py``, how
many pairs were run and in how many the change won.  A number the change's
write-up did not record is ``null``; the workload, the metric, the pairs
and the wins never are.  ``BENCHMARK.json`` is only read here.
"""

import json
import numbers
import pathlib

from stage_counts import CELLS, ROWS, STAGES

ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER_FIELDS = {"pr", "commit", "workload", "metric", "claimed", "seeds",
                 "pairs", "wins", "parent", "change", "per_pair", "note"}
SUMMARY_FIELDS = {"median", "q1", "q3"}


def load(name):
    return json.loads((ROOT / name).read_text(encoding="utf-8"))


def number_or_null(value):
    return value is None or (isinstance(value, numbers.Real)
                             and not isinstance(value, bool))


def test_the_stage_count_trajectory_parses():
    entries = load("BENCH_counts.json")
    assert entries
    for entry in entries:
        assert isinstance(entry["commit"], str) and entry["python"]
        assert set(entry["rows"]) == set(ROWS), entry["commit"]
        for counts in entry["rows"].values():
            cells = counts.get("cells")
            counts = {name: count for name, count in counts.items()
                      if name != "cells"}
            assert set(STAGES) <= set(counts)
            assert all(isinstance(count, int) for count in counts.values())
            if cells is not None:
                assert set(cells) == set(STAGES), entry["commit"]
                for stage, split in cells.items():
                    assert set(split) == set(CELLS), entry["commit"]
                    assert all(isinstance(n, int) for n in split.values())
                    assert sum(split.values()) == counts[stage], \
                        (entry["commit"], stage)


def test_every_ledger_entry_names_a_declared_workload_and_metric():
    manifest = load("BENCHMARK.json")
    workloads = {workload["name"] for workload in manifest["workloads"]}
    metrics = {metric["name"] for metric in manifest["end_to_end"]}
    entries = load("BENCH_ledger.json")
    assert entries
    claimed = set()
    for entry in entries:
        label = (entry.get("pr"), entry.get("workload"), entry.get("metric"))
        assert set(entry) == LEDGER_FIELDS, label
        assert entry["workload"] in workloads, label
        assert entry["metric"] in metrics, label
        assert isinstance(entry["pairs"], int) and entry["pairs"] > 0, label
        assert isinstance(entry["wins"], int), label
        assert 0 <= entry["wins"] <= entry["pairs"], label
        for side in ("parent", "change"):
            assert set(entry[side]) == SUMMARY_FIELDS, label
            assert all(map(number_or_null, entry[side].values())), label
        if entry["per_pair"] is not None:
            assert len(entry["per_pair"]) == entry["pairs"], label
            for pair in entry["per_pair"]:
                assert len(pair) == 2 and all(map(number_or_null, pair))
        if entry["claimed"]:
            claimed.add(entry["pr"])
    assert claimed == {entry["pr"] for entry in entries}, (
        "every change in the ledger has a claimed metric")
