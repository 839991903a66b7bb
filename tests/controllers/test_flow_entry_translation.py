"""A flow tuple becomes the FlowEntry it did before compiled layouts.

``FieldMapping.flow_entry_from_tuple`` reads a layout compiled once per
``flow_entry_layout`` (arity, match columns sorted by field name, out-port
column) and builds the ``FlowEntry`` directly.  ``dict_built`` below is the
translation it replaced, kept verbatim as the reference: a dict of the
non-wildcard match columns, then ``FlowEntry.create``, which sorts it.  Over
random tuples of the ``figure2``, ``five_tuple`` and Q1 mappings — of the
right and the wrong arity, with ``WILDCARD`` in any match column, a switch id
or out-port that is no int, or a ``"*"`` out-port — both give the same
``(switch, match, out_port, priority)``, or both ``None``.  A layout
naming a field that is no match field is still a ``ValueError``.

The storage layer under the same replay path reads its schema once per
insert: a tuple of the wrong arity raises the same ``SchemaError`` text as
before, and a table with a primary key still evicts the tuple an insert
replaces.
"""

import random

import pytest

from repro.controllers import FIELD_MAPPINGS, FieldMapping
from repro.ndlog.ast import WILDCARD
from repro.ndlog.errors import SchemaError
from repro.ndlog.tuples import Database, NDTuple, TableSchema
from repro.scenarios.q1_copy_paste import Q1_MAPPING
from repro.sdn.switch import FlowEntry

MAPPINGS = dict(FIELD_MAPPINGS, q1=Q1_MAPPING)


def dict_built(mapping, tup, priority):
    """``flow_entry_from_tuple`` as it was before compiled layouts."""
    if tup.arity != len(mapping.flow_entry_layout) + 1:
        return None
    switch_id = tup.values[0]
    match = {}
    out_port = None
    for column, name in enumerate(mapping.flow_entry_layout, start=1):
        value = tup.values[column]
        if name == "out_port":
            out_port = value
        elif value != WILDCARD:
            match[name] = value
    if out_port is None or not isinstance(switch_id, int):
        return None
    if not isinstance(out_port, int):
        return None
    entry = FlowEntry.create(match, out_port, priority=priority)
    return switch_id, entry


def observable(translated):
    if translated is None:
        return None
    switch_id, entry = translated
    return switch_id, entry.match, entry.out_port, entry.priority


def random_value(rng):
    return rng.choice([rng.randint(0, 300), rng.randint(0, 300), WILDCARD,
                       "h1", None, 2.5])


def random_tuple(rng, mapping):
    arity = len(mapping.flow_entry_layout) + 1
    if rng.random() < 0.15:
        arity += rng.choice([-2, -1, 1])
    values = [rng.choice([rng.randint(1, 9), rng.randint(1, 9), "S1", None])]
    for name in mapping.flow_entry_layout[:max(arity - 1, 0)]:
        if name == "out_port":
            values.append(rng.choice([rng.randint(-3, 48), WILDCARD, "p2"]))
        else:
            values.append(random_value(rng))
    values.extend(rng.randint(0, 9) for _ in range(arity - len(values)))
    return NDTuple(mapping.flow_table, tuple(values[:max(arity, 0)]))


@pytest.mark.parametrize("name", sorted(MAPPINGS))
def test_the_compiled_translation_equals_the_dict_built_one(name):
    mapping = MAPPINGS[name]
    rng = random.Random(39)
    outcomes = set()
    for _ in range(2000):
        tup = random_tuple(rng, mapping)
        priority = rng.choice([1, 10, 100])
        expected = observable(dict_built(mapping, tup, priority))
        assert observable(mapping.flow_entry_from_tuple(
            tup, priority)) == expected, tup
        outcomes.add(expected is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", sorted(MAPPINGS))
def test_a_wildcard_in_each_match_column_leaves_that_field_out(name):
    mapping = MAPPINGS[name]
    layout = mapping.flow_entry_layout
    for wildcarded in range(len(layout)):
        if layout[wildcarded] == "out_port":
            continue
        values = [3] + [WILDCARD if column == wildcarded else 7 + column
                        for column in range(len(layout))]
        tup = NDTuple(mapping.flow_table, tuple(values))
        translated = mapping.flow_entry_from_tuple(tup, 10)
        assert observable(translated) == observable(
            dict_built(mapping, tup, 10))
        assert layout[wildcarded] not in dict(translated[1].match)


def test_a_star_out_port_or_a_non_int_switch_translates_to_nothing():
    mapping = FIELD_MAPPINGS["figure2"]
    for values in [(1, 80, WILDCARD), ("S1", 80, 2), (1, 80, None),
                   (1.0, 80, 2), (1, 80, "2")]:
        tup = NDTuple(mapping.flow_table, values)
        assert mapping.flow_entry_from_tuple(tup, 10) is None
        assert dict_built(mapping, tup, 10) is None


def test_a_layout_naming_an_unknown_field_is_a_value_error():
    mapping = FieldMapping(flow_entry_layout=("vlan", "out_port"))
    with pytest.raises(ValueError, match="unknown match field 'vlan'"):
        mapping.flow_entry_from_tuple(NDTuple("FlowTable", (1, 5, 2)), 10)
    with pytest.raises(ValueError):
        dict_built(mapping, NDTuple("FlowTable", (1, 5, 2)), 10)


def test_a_tuple_of_the_wrong_arity_raises_the_same_schema_error():
    database = Database({"Link": TableSchema("Link", ("Src", "Dst"))})
    with pytest.raises(SchemaError) as raised:
        database.insert(NDTuple("Link", (1, 2, 3)))
    assert str(raised.value) == (
        "tuple Link(1, 2, 3) has arity 3, schema of 'Link' expects 2")
    assert database.count("Link") == 0


def test_a_keyed_table_still_evicts_on_insert():
    database = Database({"Route": TableSchema(
        "Route", ("Swi", "Dst", "Port"), primary_key=("Swi", "Dst"))})
    evicted = []

    class Hook:
        def __call__(self):
            return evicted.append

    database.eviction_hook = Hook()
    old, new = NDTuple("Route", (1, 9, 2)), NDTuple("Route", (1, 9, 3))
    assert database.insert(old)
    assert database.insert(new)
    assert database.tuples("Route") == {new} and evicted == [old]
    assert database.insert(NDTuple("Route", (2, 9, 2)))
    assert database.count("Route") == 2 and evicted == [old]
    assert not database.insert(new)
