"""The crown-jewel invariants, as one table.

A report is a pure function of (config, scenario): the backtest's path, the
hash seed, telemetry, a killed worker, the other candidates of a run and
the names the benchmark ledger flips move no byte of it.  Each of
:data:`ROWS` is one value of one such axis, run on Q1-Q5; a cell's digest
(:mod:`cases`) must equal the one ``digests.json`` pins for the row's
reference.  A deleted mechanism takes its row with it; a new one adds one.
The function-level differentials (KS identity, the walk differential, veto
== verdict) stay beside their functions.

A change that moves reports on purpose re-pins with

    PYTHONPATH=src:tests/contracts python tests/contracts/cases.py \\
        > digests.json.new \\
        && mv digests.json.new tests/contracts/digests.json

which prints ``reference scenario: old -> new (same|MOVED)`` per cell on
stderr, so it shows what else moved (through a second file: the script
reads the digests it replaces).
"""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import pytest

import repro.backtest.replay as replay_module
from repro.api import RepairConfig, TelemetryConfig
from repro.api.config import LEDGER_ONLY_KNOBS
from repro.backtest import BacktestReport

from cases import (DIGESTS_PATH, LEDGER_DEFAULTS, REFERENCES, SCENARIOS,
                   backtest_wire, digest, fresh_candidates, hand_built_run,
                   session_wire)

PINNED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
CONTRACTS = pathlib.Path(__file__).resolve().parent
SRC = CONTRACTS.parent.parent / "src"


# ---------------------------------------------------------------------------
# The hand-built run, three more ways: what one candidate derives, installs
# or aborts leaves no trace on the next (every candidate builds cold).
# ---------------------------------------------------------------------------


def alone(config, scenario):
    """Each candidate from a backtester that sees only it."""
    reports = [hand_built_run(config, scenario, [candidate])[0]
               for candidate in fresh_candidates(scenario.name)]
    first = reports[0]
    return BacktestReport(
        baseline=first.baseline, packet_count=first.packet_count,
        results=[report.results[0] for report in reports],
        vetoed_count=sum(report.vetoed_count for report in reports),
        quarantined_count=sum(report.quarantined_count
                              for report in reports))


def reversed_order(config, scenario):
    """The list in reverse order, its results put back in input order."""
    report, _ = hand_built_run(config, scenario,
                               fresh_candidates(scenario.name)[::-1])
    report.results.reverse()
    return report


def second_run(config, scenario):
    """A second ``evaluate_all`` on the backtester of a first: nothing a
    run leaves behind (plan cache, baseline, counters) moves the next."""
    backtester = config.make_backtester(scenario)
    candidates = fresh_candidates(scenario.name)
    hand_built_run(config, scenario, candidates, backtester)
    return hand_built_run(config, scenario, candidates, backtester)[0]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One value of one axis: the knobs it adds to its reference's config,
    and how its cell runs when that is not just the config."""

    axis: str
    value: str
    reference: str = "plain"
    knobs: Dict[str, object] = field(default_factory=dict)
    scenarios: Tuple[str, ...] = SCENARIOS
    #: Run the cell in a fresh interpreter under this ``PYTHONHASHSEED``.
    hash_seed: Optional[int] = None
    #: Replaces the hand-built ``evaluate_all`` (the isolation axis).
    hand_built: Optional[Callable] = None
    #: A ``LEDGER_ONLY_KNOBS`` name flipped through ``with_updates``.
    ledger_knob: Optional[str] = None

    @property
    def id(self):
        return f"{self.axis}={self.value}/{self.reference}"


INPROCESS = {"transport": "inprocess"}
SPAWN = {"transport": "spawn", "workers": 2}
SOCKET = {"transport": "socket", "workers": 2}
#: ``workers=2`` and no transport: the gated scheduler, on a spawn fleet.
GATED = {"workers": 2}
#: CI's chaos plan: worker 0 dies as it takes its first item.
KILL_ONE_WORKER = {"seed": 0, "actions": [
    {"kind": "kill", "worker": 0, "after_items": 0}]}

PATHS = (("inprocess", INPROCESS), ("spawn", SPAWN), ("socket", SOCKET),
         ("workers=2", GATED))

#: The growth bound alone: no candidate of the plain runs overloads, so
#: its cells are the plain reference's.
GROWTH_ONLY = Row("abort", "off, growth bound 1.5",
                  knobs={"max_packet_in_growth": 1.5})

ROWS = [
    Row("path", "serial"),
    *(Row("path", value, knobs=knobs) for value, knobs in PATHS),
    Row("interpreter", "PYTHONHASHSEED=0", hash_seed=0),
    Row("interpreter", "PYTHONHASHSEED=3", hash_seed=3),
    Row("telemetry", "slice_packets=8",
        knobs={"telemetry": TelemetryConfig(slice_packets=8)}),
    GROWTH_ONLY,
    Row("abort", "serial", "abort"),
    *(Row("abort", value, "abort", knobs) for value, knobs in PATHS),
    Row("faults", "kill one spawn worker",
        knobs={**SPAWN, "transport_options": {"fault_plan": KILL_ONE_WORKER}},
        scenarios=("Q1",)),
    *(Row("isolation", how.__name__, reference, hand_built=how)
      for reference in REFERENCES
      for how in (alone, reversed_order, second_run)),
    *(Row("ledger-only name", knob, ledger_knob=knob)
      for knob in LEDGER_ONLY_KNOBS),
]


def fleet(cell):
    """The fleet shape a cell borrows ("" for none).  Cells run grouped by
    it (a stable sort keeps the table's order within a group), so each
    shape's fleet starts once and the next cells borrow it parked."""
    knobs = cell[0].knobs
    return knobs.get("transport") or ("spawn" if "workers" in knobs else "")


CELLS = sorted(((row, name) for row in ROWS for name in row.scenarios),
               key=fleet)


# ---------------------------------------------------------------------------
# Running a cell
# ---------------------------------------------------------------------------

_fresh_interpreters: Dict[int, Dict] = {}
_accepted_under_growth: Dict[str, Tuple] = {}


def in_fresh_interpreter(seed):
    """Every reference digest, computed by ``cases.py`` in a new process
    under ``PYTHONHASHSEED=seed`` (once per seed)."""
    if seed not in _fresh_interpreters:
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([str(SRC), str(CONTRACTS)]))
        done = subprocess.run(
            [sys.executable, str(CONTRACTS / "cases.py")], env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        _fresh_interpreters[seed] = json.loads(done.stdout)
    return _fresh_interpreters[seed]


def run_cell(row, name):
    """``(digest, accepted tags, aborted rows, fault stats)`` of one cell;
    the fault stats are the session's and the hand-built run's, ``None``
    for a serial run."""
    config = RepairConfig.for_scenario(name, **REFERENCES[row.reference],
                                       **row.knobs)
    if row.ledger_knob is not None:
        flipped = config.with_updates(
            **{row.ledger_knob: not LEDGER_DEFAULTS[row.ledger_knob]})
        assert flipped == config
        config = flipped
    session, live = session_wire(config)
    scenario = config.build_scenario()
    if row.hand_built is not None:
        report, stats = row.hand_built(config, scenario), None
    else:
        report, stats = hand_built_run(config, scenario)
    hand_built = backtest_wire(report)
    results = session["results"] + hand_built["results"]
    accepted = tuple(result["tag"] for result in results
                     if result["accepted"])
    aborted = sum(1 for result in results
                  if any(note.startswith("aborted after")
                         for note in result["notes"]))
    session_faults = live.events.of_kind("fabric_fault_stats")
    return digest(session, hand_built), accepted, aborted, \
        (session_faults, stats)


@pytest.mark.parametrize("row, name", CELLS,
                         ids=[f"{row.id}-{name}" for row, name in CELLS])
def test_cell_matches_its_reference(row, name, monkeypatch):
    pinned = PINNED[row.reference][name]
    if row.hash_seed is not None:
        assert in_fresh_interpreter(row.hash_seed)[row.reference][name] == \
            pinned
        return
    if row.knobs.get("workers", 1) > 1 and "transport" not in row.knobs:
        # These smoke-sized jobs are exactly what the min-work gate keeps
        # serial; open it so the job really goes through the fleet.
        monkeypatch.setattr(replay_module, "PARALLEL_MIN_SECONDS", 0.0)
    cell, accepted, aborted, (session_faults, stats) = run_cell(row, name)
    assert cell == pinned
    if row.axis == "faults":
        # The plan fired in both runs, and the fleet recovered.
        (event,) = session_faults
        assert event.worker_restarts >= 1 and stats.worker_restarts >= 1
    else:
        assert session_faults == []
        assert stats is None or not stats.any()
    if row.reference == "abort":
        # The policy stops Q1's flooder (and Q3's and Q4's candidates) and
        # changes no verdict: the rows accepted are those the growth bound
        # alone accepts.
        if name == "Q1":
            assert aborted >= 1
        if name not in _accepted_under_growth:
            _accepted_under_growth[name] = run_cell(GROWTH_ONLY, name)[1]
        assert accepted == _accepted_under_growth[name]


def test_every_reference_cell_is_pinned():
    assert {reference: sorted(cells) for reference, cells in PINNED.items()} \
        == {reference: sorted(SCENARIOS) for reference in REFERENCES}
