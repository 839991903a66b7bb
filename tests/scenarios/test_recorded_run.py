"""One quiet replay equals the recording-engine Diagnose it replaced.

A session's Diagnose replays the buggy program over the (cut) trace once,
on a quiet engine under the recorder (``NDlogScenario.recorded_run``), and
that one run yields both the history index the explorer searches and the
backtest baseline.  The oracle is the path it replaced, kept in
``tests/recording_oracle.py``: a recording engine whose INSERT events and
final store (in store order) are indexed, and a backtester that replays its
own baseline.

The cases are Q1–Q5 and the session shapes of the ``trace_heavy``,
``candidate_heavy`` and ``program_heavy`` ledger workloads at seed 0, built
by the ledger's own workload modules as ``tests/perf/stage_counts.py``
builds them, each over the whole trace and over a cut of it.  The history
must equal the oracle's table by table, in order, and in ``all_values()``;
the baseline must equal an unseeded ``Backtester.baseline()``; a session's
report must equal that of the same session whose backtester replays its own
baseline.  The index of each of Q1–Q5 is also pinned by digest: it used to
be read off the store's *sets*, and its order then moved with
``PYTHONHASHSEED``.  CI runs this module under hash seeds 0 and 3.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.api import RepairConfig, RepairSession
from repro.backtest import Backtester
from repro.repair import reset_candidate_ids
from repro.scenarios import SCENARIO_BUILDERS, build_scenario

import recording_oracle
from helpers import history_tables

LEDGER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
PAPER = ("Q1", "Q2", "Q3", "Q4", "Q5")
SHAPES = ("trace_heavy", "candidate_heavy", "program_heavy")
#: The cut of the trace-limited cases and of the session tests below, in
#: packets: shorter than every trace above, so a cut run replays a strict
#: prefix.
CUT = 30
#: sha256 (first 16 hex digits) of each scenario's history index over the
#: whole trace: its per-table tuple lists, then ``all_values()``.
PINNED_HISTORY_DIGESTS = {
    "Q1": "91a4cc9f5d494642",
    "Q2": "182c7c97c7cf290e",
    "Q3": "deb1817a67f957db",
    "Q4": "7f4a96b2142311fd",
    "Q5": "7fd396b8de6dd544",
}
BASELINE_FIELDS = ("destinations", "packet_in_count", "flow_mod_count",
                   "packet_out_count", "delivered_per_host", "dropped")


@pytest.fixture(autouse=True, scope="module")
def _scenario_registry():
    """The ``program_heavy`` shape registers a scenario of its own: leave
    the registry and ``sys.path`` as this module found them."""
    builders, path = dict(SCENARIO_BUILDERS), list(sys.path)
    yield
    SCENARIO_BUILDERS.clear()
    SCENARIO_BUILDERS.update(builders)
    sys.path[:] = path


def _config(name):
    """The session config wire of a paper scenario or a ledger shape."""
    if name in PAPER:
        return RepairConfig.for_scenario(name, max_candidates=14).to_wire()
    if str(LEDGER) not in sys.path:
        sys.path.insert(0, str(LEDGER))
    from workloads import WORKLOADS
    module = WORKLOADS[name]
    return module.runner(module.inputs(0, smoke=False)).config


def _scenario(name):
    return RepairSession.from_wire(_config(name)).scenario


def _rows(history):
    """An index as a value: per-table tuple lists in order, then
    ``all_values()``."""
    return ([(table, [tup.values for tup in history.tuples_of(table)])
             for table in sorted(history_tables(history))],
            history.all_values())


def _digest(history):
    return hashlib.sha256(repr(_rows(history)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("trace_limit", (None, CUT))
@pytest.mark.parametrize("name", PAPER + SHAPES)
def test_one_replay_equals_the_recording_oracle(name, trace_limit):
    scenario = _scenario(name)
    assert len(scenario.trace()) > CUT
    run = scenario.recorded_run(trace_limit=trace_limit)
    assert run.trace_limit == trace_limit
    assert _rows(run.history) == _rows(
        recording_oracle.history_index(scenario, trace_limit=trace_limit))
    baseline = Backtester(scenario, trace_limit=trace_limit).baseline()
    for field in BASELINE_FIELDS:
        assert getattr(run.baseline, field) == getattr(baseline, field), field
    assert run.baseline.total == (trace_limit or len(scenario.trace()))


@pytest.mark.parametrize("name", PAPER)
def test_the_history_index_is_pinned(name):
    digest = _digest(build_scenario(name).history_index())
    assert digest == PINNED_HISTORY_DIGESTS[name], (
        f"{name}'s history index moved: digest {digest}, pinned "
        f"{PINNED_HISTORY_DIGESTS[name]}.  Its order is what the explorer "
        "matches and seeds constants in; a move that is not meant is a bug")


def _report(session):
    reset_candidate_ids()
    wire = session.run().to_wire()
    del wire["timings"]
    return json.dumps(wire, sort_keys=True)


@pytest.mark.parametrize("trace_limit", (None, CUT))
@pytest.mark.parametrize("name", PAPER + SHAPES)
def test_a_session_judges_against_diagnoses_run(name, trace_limit):
    """The same report as a session whose backtester replays its own
    baseline: there, ``history`` is filled by hand, so no Diagnose run is
    at hand and the backtester falls back to :meth:`Backtester.baseline`."""
    config = dict(_config(name), trace_limit=trace_limit)
    session = RepairSession.from_wire(config)
    report = _report(session)
    recorded = session.recorded_run
    assert session.backtester.baseline() is recorded.baseline

    replaying = RepairSession.from_wire(config)
    replaying.artifacts["history"] = replaying.scenario.history_index(
        trace_limit=trace_limit)
    assert _report(replaying) == report
    assert replaying.recorded_run is None
    own = replaying.backtester.baseline()
    assert own is not recorded.baseline
    for field in BASELINE_FIELDS:
        assert getattr(own, field) == getattr(recorded.baseline, field), field


def test_a_baseline_of_another_cut_is_not_used():
    session = RepairSession(RepairConfig.for_scenario("Q1", max_candidates=4))
    session.run(until="diagnose")
    session.config.trace_limit = CUT
    session.run()
    assert session.backtester.baseline() is not \
        session.recorded_run.baseline
    assert session.backtester.baseline().total == CUT


def test_a_history_filled_by_hand_after_diagnose_is_not_its_run():
    session = RepairSession(RepairConfig.for_scenario("Q1", max_candidates=4))
    session.run(until="diagnose")
    session.artifacts["history"] = recording_oracle.history_index(
        session.scenario)
    session.run()
    assert session.backtester.baseline() is not \
        session.recorded_run.baseline


def test_a_rerun_diagnose_hands_over_its_own_run():
    session = RepairSession(RepairConfig.for_scenario("Q1", max_candidates=4))
    session.run(until="diagnose")
    first = session.recorded_run
    session.reset("diagnose")
    session.run()
    assert session.recorded_run is not first
    assert session.backtester.baseline() is session.recorded_run.baseline
