"""The one wire codec (:mod:`repro.wire`) at the door of every wire type.

Three contracts:

* a defect table: wires each hand-written decoder used to accept, and that
  the codec refuses with the class's own ``ValueError`` subclass;
* a fuzz over every decoder: any JSON value, a valid wire with one value
  replaced, added, dropped or repeated, or any JSON text decodes to a value
  whose re-encoding equals it (up to the defaults it omitted, the
  upper-casing of scenario names and the description a candidate derives
  from its edits) or raises the class's error — never a ``TypeError``,
  ``KeyError`` or ``AttributeError``, and never a hang;
* nothing in ``src/repro`` pickles: no module imports ``pickle`` or
  defines a pickle hook.
"""

import ast
import copy
import json
import pathlib
from datetime import timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (BacktestProgress, ConfigError, RepairConfig,
                       SessionEvent, TelemetryConfig)
from repro.backtest import EarlyAbortPolicy
from repro.backtest.metrics import KSResult
from repro.backtest.replay import BacktestResult, ShardOutcome
from repro.distrib import (BacktesterConfig, BacktestJob, FaultAction,
                           FaultPlan, JobWireError)
from repro.ndlog import make_tuple, parse_program
from repro.obs.telemetry import JobContext, SpanContext
from repro.ndlog.ast import BinOp, Const, FuncCall, Var
from repro.repair import (ChangeAssignment, CopyRule, InsertTuple,
                          RepairCandidate)
from repro.scenarios.spec import ScenarioSpec, SpecError
from repro.sdn.network import TrafficStats
from repro.service import RepairJob
from repro.wire import WireError, decode, encode

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("cls, wire, error", [
    # The value later raised ``TypeError: '>=' not supported`` inside
    # ``retry_or_quarantine``, on a pool thread; the block is no key now.
    (RepairConfig, {"fault_tolerance": {"max_attempts": "3"}}, ConfigError),
    (FaultPlan, {"actions": [{"kind": "kill", "after_items": "1"}]},
     WireError),
    (FaultAction, {"kind": "raise", "worker": True}, WireError),
    # Coerced the string and dropped the key; job abort wires decode here.
    (EarlyAbortPolicy, {"check_every": "32", "bogus": 1}, WireError),
    (ScenarioSpec, {"name": "q1", "seed": "7", "extra": 1}, SpecError),
    # Refused before, but said "must be a list of 2": the suffix is for
    # fixed tuples only.
    (FaultPlan, {"actions": 5},
     (WireError, "'actions' must be a list, not 5$")),
    # The candidate, the job header and events had decoders of their own.
    (RepairCandidate, {"edits": [], "cost": "1"}, WireError),
    (RepairCandidate, {"edits": [{"kind": "change_constant", "rule": "r1",
                                  "selection_index": "0", "side": "right",
                                  "old_value": 1, "new_value": 2}],
                       "cost": 1.0, "extra": 1}, WireError),
    (BacktestJob, {"kind": "backtest", "spec": {"name": "Q1"},
                   "config": {"ks_threshold": 0.1}, "candidate_count": "2"},
     JobWireError),
    (SessionEvent, {"kind": "stage_finished", "elapsed_seconds": "slow"},
     WireError),
    # An edit kind no search emits any more is refused by name.
    (RepairCandidate, {"edits": [{"kind": "delete_rule", "rule": "r1"}],
                       "cost": 1.0},
     (WireError, "Edit kind 'delete_rule' is not one of")),
], ids=lambda value: getattr(value, "__name__", None))
def test_wires_the_old_decoders_accepted_are_refused(cls, wire, error):
    error, message = error if isinstance(error, tuple) else (error, None)
    assert cls.wire_error is error and issubclass(error, ValueError)
    with pytest.raises(error, match=message):
        cls.from_wire(wire)


def _outcome():
    stats = TrafficStats(delivered_per_host={3: 2, 5: 1}, dropped=1, total=4,
                         packet_in_count=2, flow_mod_count=1,
                         destinations=[3, 5, -1, 3])
    return ShardOutcome(
        result=BacktestResult(candidate=None, stats=stats,
                              ks=KSResult(0.25, (4, 4)),
                              effective=True, accepted=False,
                              elapsed_seconds=0.01, notes=("vetoed",)),
        spans=[{"name": "candidate"}],
        metrics={"counters": []})


def _candidate():
    """A copied rule, an expression of every kind and a wildcard tuple."""
    rule = parse_program(
        "copied FlowTable(@Swi, Sip, Hdr, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
        "WebLoadBalancer(@Swi, Sip, Prt), Swi != 2, Prt := 2.").rules[0]
    return RepairCandidate(
        edits=(CopyRule("r1", rule),
               ChangeAssignment("r5", 0, "Prt", "1", BinOp(
                   "+", FuncCall("f_port", (Var("Hdr"), Const("*"))),
                   Const(1))),
               InsertTuple(make_tuple("FlowTable", 2, "*", 80, 1))),
        cost=2.5, candidate_id=7, notes=("hand-built",))


#: One valid value per wire type: its re-encoding seeds the mutations.
SAMPLES = {
    RepairConfig: RepairConfig(
        scenario=ScenarioSpec.create("Q2", params={"repetitions": 2}),
        trace_limit=120, max_packet_in_growth=2.5,
        abort=EarlyAbortPolicy(check_every=16, min_fraction=0.5),
        transport="spawn", transport_options={"result_timeout": 60.0},
        telemetry=TelemetryConfig(slice_packets=64)),
    TelemetryConfig: TelemetryConfig(slice_packets=8, profile=True),
    EarlyAbortPolicy: EarlyAbortPolicy(check_every=8, min_fraction=0.1),
    FaultPlan: FaultPlan(seed=3, actions=(
        FaultAction(kind="kill", worker=0, after_items=1),
        FaultAction(kind="poison", index=2))),
    FaultAction: FaultAction(kind="hang", worker=1, seconds=0.5),
    ScenarioSpec: ScenarioSpec.create("Q1", params={"repetitions": 2},
                                      seed=7),
    RepairJob: RepairJob(session_id="s-1",
                         config=RepairConfig.for_scenario("Q1")),
    ShardOutcome: _outcome(),
    RepairCandidate: _candidate(),
    BacktestJob: BacktestJob(
        spec=ScenarioSpec.create("Q1", params={"repetitions": 1}),
        config=BacktesterConfig(
            ks_threshold=0.05, trace_limit=None, max_packet_in_growth=2.0),
        abort=EarlyAbortPolicy(check_every=8), deadline=30.0,
        telemetry=JobContext(SpanContext("t1", "1"), slice_packets=64),
        candidates=(_candidate(),)),
    SessionEvent: BacktestProgress(done=2, total=3, description="r7",
                                   accepted=True, ks_statistic=0.125,
                                   trace_id="t1"),
}

SCALAR = (st.none() | st.booleans() | st.integers(-2, 2) | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.text(max_size=6))
JSON = st.recursive(
    SCALAR, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)


def _slots(value, path=()):
    """Every place in a JSON value a mutation may touch."""
    if isinstance(value, dict):
        yield path, None                  # a new key here
        for key, item in value.items():
            yield path, key
            yield from _slots(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield path, index
            yield from _slots(item, path + (index,))


@st.composite
def mutated(draw, wire):
    wire = copy.deepcopy(wire)
    path, key = draw(st.sampled_from(list(_slots(wire))))
    parent = wire
    for step in path:
        parent = parent[step]
    if key is None:
        parent[draw(st.text(max_size=6))] = draw(JSON)
    elif draw(st.integers(0, 3)) > 0:
        parent[key] = draw(SCALAR | JSON)
    elif isinstance(parent, dict):
        del parent[key]
    else:
        parent.insert(key, parent[key])   # a list one item longer
    return wire


def _codec(cls):
    if cls is ShardOutcome:
        return (lambda wire: decode(ShardOutcome, wire)), encode, WireError
    return cls.from_wire, cls.to_wire, cls.wire_error


def _covers(full, part):
    """``full`` holds every value of ``part``, of the same JSON type."""
    if isinstance(part, dict):
        return isinstance(full, dict) and all(
            key in full and _covers(full[key], value)
            for key, value in part.items())
    if isinstance(part, list):
        return (isinstance(full, list) and len(full) == len(part)
                and all(map(_covers, full, part)))
    if isinstance(part, str) and full == part.upper():
        return True                       # scenario names are upper-cased
    if part == "" and isinstance(full, str):
        return True                       # a description is derived
    return type(full) is type(part) and full == part


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(data=st.data())
@example(data=None)
def test_every_decoder_decodes_or_refuses_with_its_error(cls, data):
    from_wire, to_wire, error = _codec(cls)
    assert issubclass(error, ValueError) and error is not ValueError
    valid = to_wire(SAMPLES[cls])
    if data is None:
        wires = [valid]
    else:
        wires = [data.draw(JSON | mutated(valid), label="wire")]
    for wire in wires:
        try:
            value = from_wire(wire)
        except error:
            continue
        encoded = to_wire(value)
        assert json.loads(json.dumps(encoded)) == encoded
        assert _covers(encoded, wire), (encoded, wire)
        assert from_wire(encoded) == value
    if data is not None and hasattr(cls, "from_json"):
        text = data.draw(st.text(max_size=40)
                         | JSON.map(json.dumps)
                         | st.just("[" * 100_000), label="text")
        try:
            cls.from_json(text)
        except error:
            pass


def _pickle_hooks(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names
                        if alias.name.split(".")[0] in ("pickle", "dill"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in ("pickle", "dill"):
                yield node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ("__reduce__", "__reduce_ex__", "__getstate__",
                             "__setstate__"):
                yield node.name


def test_nothing_in_src_pickles():
    """Frames are JSON and every wire type decodes through one codec, so no
    module imports ``pickle`` or keeps a hook for it."""
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    found = {str(path.relative_to(SRC)): hooks for path in modules
             if (hooks := list(_pickle_hooks(path)))}
    assert found == {}
