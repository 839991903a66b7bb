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
backtester must hold Diagnose's baseline and reach the verdicts of a
backtester that replays its own.  The index of each of Q1–Q5 is also pinned by digest: it used to
be read off the store's *sets*, and its order then moved with
``PYTHONHASHSEED``.  CI runs this module under hash seeds 0 and 3.
"""

import hashlib
import pathlib
import sys

import pytest

from repro.api import RepairConfig, RepairSession
from repro.backtest import Backtester
from repro.scenarios import SCENARIO_BUILDERS, build_scenario

import recording_oracle
from helpers import history_tables

LEDGER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
PAPER = ("Q1", "Q2", "Q3", "Q4", "Q5")
SHAPES = ("trace_heavy", "candidate_heavy", "program_heavy")
#: The cut of the trace-limited cases below, in packets: shorter than every
#: trace above, so a cut run replays a strict prefix.
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


@pytest.mark.parametrize("trace_limit", (None, CUT))
@pytest.mark.parametrize("name", PAPER + SHAPES)
def test_a_session_judges_against_diagnoses_run(name, trace_limit):
    """Backtest holds Diagnose's baseline object, which equals a fresh
    :meth:`Backtester.baseline` field by field, and its verdicts equal
    those of a backtester that replays its own baseline."""
    config = dict(_config(name), trace_limit=trace_limit)
    session = RepairSession.from_wire(config)
    session.run()
    recorded = session.recorded_run
    assert recorded.trace_limit == trace_limit
    assert session.backtester.baseline() is recorded.baseline
    fresh = Backtester(session.scenario, trace_limit=trace_limit).baseline()
    for field in BASELINE_FIELDS:
        assert getattr(recorded.baseline, field) == getattr(fresh, field), \
            field

    replaying = session.config.make_backtester(session.scenario)
    own = replaying.evaluate_all(session.exploration.candidates)
    assert replaying.baseline() is not recorded.baseline
    assert _verdicts(own) == _verdicts(session.backtest)


def _verdicts(report):
    return [(r.candidate.tag, r.ks.statistic, r.effective, r.accepted,
             r.notes) for r in report.results]
