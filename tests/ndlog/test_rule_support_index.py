"""The per-rule support index stays in lockstep with the support graph.

``Engine._supports_by_rule`` is what makes :meth:`Engine._retract_rules`
O(the retracted rules' own supports) instead of a scan over every live
support.  These tests assert the invariant — the index always equals a
recomputation from ``_supports`` — across every mutation path: fixpoint
inserts, incremental deletes, key-update evictions, program swaps, rule
deltas and checkpoint/restore rewinds, including randomized sequences.
"""

import random

import pytest

from repro.ndlog import Engine, make_tuple, parse_program
from repro.ndlog.tuples import TableSchema

PROGRAM = """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 9.
r3 Path(@A,C,Total) :- Link(@A,B,Cost1), Path(@B,C,Cost2), Total := Cost1 + Cost2, Total < 12.
r4 Reach(@A,B) :- Path(@A,B,Cost).
"""

MODIFIED = """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 5.
r4 Reach(@A,B) :- Path(@A,B,Cost).
r5 Hub(@A) :- Path(@A,B,Cost), Cost > 6.
"""


def expected_index(engine):
    expected = {}
    for head, supports in engine._supports.items():
        for key in supports:
            expected.setdefault(key[0], set()).add((head, key))
    return expected


def assert_index_consistent(engine):
    assert engine._supports_by_rule == expected_index(engine)


def links(pairs):
    return [make_tuple("Link", a, b, cost) for a, b, cost in pairs]


def test_index_tracks_inserts_and_removes():
    engine = Engine(parse_program(PROGRAM))
    for link in links([(1, 2, 3), (2, 3, 4), (3, 4, 5)]):
        engine.insert(link)
        assert_index_consistent(engine)
    assert set(engine._supports_by_rule) <= {"r1", "r2", "r3", "r4"}
    for link in links([(2, 3, 4), (1, 2, 3)]):
        engine.remove(link)
        assert_index_consistent(engine)


def test_index_survives_program_delta():
    old = parse_program(PROGRAM)
    engine = Engine(old)
    engine.insert_many(links([(1, 2, 3), (2, 3, 4), (3, 4, 8)]))
    engine.checkpoint()
    new = parse_program(MODIFIED)
    engine.apply_program_delta(old, new)
    assert_index_consistent(engine)
    assert "r3" not in engine._supports_by_rule
    # Retraction seeded from the index produced the from-scratch state.
    fresh = Engine(parse_program(MODIFIED))
    fresh.insert_many(links([(1, 2, 3), (2, 3, 4), (3, 4, 8)]))
    assert ({t for ts in engine.database._tables.values() for t in ts}
            == {t for ts in fresh.database._tables.values() for t in ts})


def test_index_rewinds_on_restore():
    old = parse_program(PROGRAM)
    engine = Engine(old)
    engine.insert_many(links([(1, 2, 3), (2, 3, 4)]))
    checkpoint = engine.checkpoint()
    before = expected_index(engine)
    engine.apply_program_delta(old, parse_program(MODIFIED))
    engine.restore(checkpoint)
    assert engine._supports_by_rule == before
    assert_index_consistent(engine)


def test_index_follows_key_update_eviction():
    program = parse_program(
        "k1 Best(@A,B) :- Link(@A,B,Cost), Cost < 9.")
    engine = Engine(program)
    engine.register_schema(TableSchema(
        "Best", ("node", "via"), primary_key=("node",)))
    engine.insert(make_tuple("Link", 1, 2, 3))
    assert_index_consistent(engine)
    # A second derivation for the same key evicts the first Best tuple.
    engine.insert(make_tuple("Link", 1, 3, 2))
    assert_index_consistent(engine)


def test_index_invariant_under_randomized_mutations():
    rng = random.Random(20260730)
    engine = Engine(parse_program(PROGRAM))
    pool = [(a, b, c) for a in range(1, 5) for b in range(1, 5)
            for c in (2, 5, 8) if a != b]
    live = []
    checkpoints = []
    for step in range(120):
        action = rng.random()
        if action < 0.45 or not live:
            triple = rng.choice(pool)
            engine.insert(make_tuple("Link", *triple))
            live.append(triple)
        elif action < 0.75:
            triple = live.pop(rng.randrange(len(live)))
            engine.remove(make_tuple("Link", *triple))
        elif action < 0.85 or not checkpoints:
            checkpoints.append((engine.checkpoint(), list(live),
                                expected_index(engine)))
        else:
            checkpoint, snapshot, index = checkpoints.pop()
            engine.restore(checkpoint)
            live = snapshot
            assert engine._supports_by_rule == index
        assert_index_consistent(engine)
