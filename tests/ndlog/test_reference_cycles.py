"""An engine and a parsed program are freed by reference counting.

A session's objects must not sit in a reference cycle: with the cyclic
collector off, the last ``del`` frees them.  A cycle would hold them — for
a 250-rule program, over a megabyte — until the next full collection.
"""

import gc
import weakref

import pytest

from repro.analysis.depgraph import DependencyGraph
from repro.ndlog import Engine, TableSchema, make_tuple, parse_program

PROGRAM = """
r1 K(@X, Y) :- P(@X, Y).
r2 Q(@X) :- K(@X, Y), Y > 1.
"""


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_engine_is_freed_on_del(collector_off):
    engine = Engine(parse_program(PROGRAM))
    engine.register_schema(TableSchema("K", ("x", "y"), primary_key=("x",)))
    engine.insert(make_tuple("P", 1, 1))
    # A derived key update evicts K(1, 1) through the database's hook.
    engine.insert(make_tuple("P", 1, 2))
    assert engine.tuples("K") == {make_tuple("K", 1, 2)}
    alive = weakref.ref(engine)
    del engine
    assert alive() is None


def test_program_with_a_built_graph_is_freed_on_del(collector_off):
    program = parse_program(PROGRAM)
    assert DependencyGraph.of(program) is DependencyGraph.of(program)
    alive = weakref.ref(program)
    del program
    assert alive() is None
