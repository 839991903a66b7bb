"""``NDTuple`` is a plain value: the tuple ``(table, values)``.

Its hashing, equality and construction from a values tuple run in C, and
nothing a report, a set order or a wire shows may differ from the frozen
dataclass it replaced:

* ``hash(NDTuple(t, v)) == hash((t, v))``, the hash the dataclass cached, so
  every set and dict of tuples iterates in the same order and every report
  stays byte-identical;
* list values become a tuple, so a tuple is always hashable;
* ``repr`` and ``str`` are the dataclass's strings, pinned on a sample;
* an ``InsertTuple`` candidate round-trips through :mod:`repro.wire` to the
  exact JSON the dataclass produced: ``{"table", "values"}``, no list pair.

Stdlib only; CI runs it under ``PYTHONHASHSEED`` 0 and 3.
"""

import json

import pytest

from repro.ndlog import Engine, NDTuple, make_tuple, parse_program
from repro.repair import InsertTuple, RepairCandidate, candidate_from_wire
from repro.wire import WireError

from helpers import replace_value

SAMPLES = [
    ("FlowTable", (3, "*", 80, 2)),
    ("PacketIn", ("C", 1, 101, 1, 80)),
    ("WebLoadBalancer", ("C", "10.0.0.1", 80)),
    ("Empty", ()),
    ("Mixed", (True, None, 1.5, "a'b")),
]

#: ``(repr, str)`` of each sample as the frozen dataclass rendered them.
PARENT_STRINGS = [
    ("NDTuple(table='FlowTable', values=(3, '*', 80, 2))",
     "FlowTable(3, '*', 80, 2)"),
    ("NDTuple(table='PacketIn', values=('C', 1, 101, 1, 80))",
     "PacketIn('C', 1, 101, 1, 80)"),
    ("NDTuple(table='WebLoadBalancer', values=('C', '10.0.0.1', 80))",
     "WebLoadBalancer('C', '10.0.0.1', 80)"),
    ("NDTuple(table='Empty', values=())", "Empty()"),
    ("NDTuple(table='Mixed', values=(True, None, 1.5, \"a'b\"))",
     "Mixed(True, None, 1.5, \"a'b\")"),
]

#: An ``InsertTuple`` candidate's JSON as the dataclass-backed codec wrote it.
PARENT_CANDIDATE_JSON = (
    '{"candidate_id": 7, "cost": 1.0, "description": "manually insert '
    'FlowTable(3, \'*\', 80, 2)", "edits": [{"kind": "insert_tuple", '
    '"tuple": {"table": "FlowTable", "values": [3, "*", 80, 2]}}], '
    '"notes": []}')


@pytest.mark.parametrize("table, values", SAMPLES)
def test_hash_is_the_hash_of_table_and_values(table, values):
    tup = NDTuple(table, values)
    assert hash(tup) == hash((table, values))
    assert tup == NDTuple(table, list(values))
    assert (tup.table, tup.values, tup.arity) == (table, values, len(values))


def test_list_values_become_a_tuple():
    tup = NDTuple("T", [1, "*", 2])
    assert type(tup.values) is tuple and tup.values == (1, "*", 2)
    assert make_tuple("T", 1, "*", 2) == tup
    assert hash(tup) == hash(("T", (1, "*", 2)))
    assert NDTuple(values=iter([1]), table="T").values == (1,)


def test_a_tuple_built_in_c_equals_one_built_by_the_class():
    """What compiled plans and the controller do with a values tuple."""
    fast = tuple.__new__(NDTuple, ("T", (1, 2)))
    assert type(fast) is NDTuple and fast == NDTuple("T", (1, 2))
    assert str(fast) == "T(1, 2)"


def test_a_tuple_is_immutable():
    tup = NDTuple("T", (1,))
    with pytest.raises(AttributeError):
        tup.table = "U"
    assert replace_value(tup, 0, 2) == NDTuple("T", (2,)) and tup.values == (1,)


@pytest.mark.parametrize("sample, strings", zip(SAMPLES, PARENT_STRINGS))
def test_repr_and_str_are_the_dataclass_strings(sample, strings):
    tup = NDTuple(*sample)
    assert (repr(tup), str(tup)) == strings


def test_set_order_is_the_order_of_the_hashes():
    """A set of tuples iterates like a set of ``(table, values)`` pairs
    inserted in the same order: the order every report reads."""
    pairs = [(table, (index, value)) for index, (table, value) in enumerate(
        [("A", "x"), ("B", 1), ("A", "*"), ("C", None)] * 4)]
    assert [tuple(t) for t in {NDTuple(*pair) for pair in pairs}] == \
        list({pair for pair in pairs})


def test_engine_derives_tuples_of_the_class():
    engine = Engine(parse_program("r1 B(@X, Y) :- A(@X, Y)."))
    (derived,) = engine.insert(NDTuple("A", [1, 2]))
    assert type(derived) is NDTuple and derived == NDTuple("B", (1, 2))
    assert engine.contains(derived)


def test_insert_tuple_candidate_round_trips_to_the_parent_bytes():
    candidate = RepairCandidate(
        edits=(InsertTuple(tuple=NDTuple("FlowTable", (3, "*", 80, 2))),),
        cost=1.0, candidate_id=7)
    assert candidate.to_json() == PARENT_CANDIDATE_JSON
    decoded = candidate_from_wire(json.loads(PARENT_CANDIDATE_JSON))
    assert decoded == candidate
    assert type(decoded.edits[0].tuple) is NDTuple
    assert decoded.to_json() == PARENT_CANDIDATE_JSON


@pytest.mark.parametrize("edit", [
    InsertTuple(tuple=NDTuple("Cfg", ("C", 1))),
    # List values are the same tuple, hence the same wire.
    InsertTuple(tuple=NDTuple("Cfg", ["C", 1])),
])
def test_every_tuple_edit_round_trips(edit):
    candidate = RepairCandidate(edits=(edit,), cost=2.0, candidate_id=1)
    wire = json.loads(candidate.to_json())
    assert wire["edits"][0]["tuple"] == {"table": "Cfg", "values": ["C", 1]}
    assert candidate_from_wire(wire) == candidate


@pytest.mark.parametrize("bad, message", [
    ({"table": "T"}, "NDTuple key 'values' is missing"),
    ({"table": 1, "values": [1]}, "NDTuple key 'table' must be a string"),
    ({"table": "T", "values": "x"}, "NDTuple key 'values' must be a list"),
    ({"table": "T", "values": [], "x": 1}, r"unknown NDTuple keys: \['x'\]"),
    (["T", [1]], "key 'tuple' must be an object"),
])
def test_a_malformed_tuple_wire_is_a_wire_error(bad, message):
    wire = {"edits": [{"kind": "insert_tuple", "tuple": bad}], "cost": 1.0}
    with pytest.raises(WireError, match=message):
        RepairCandidate.from_wire(wire)
