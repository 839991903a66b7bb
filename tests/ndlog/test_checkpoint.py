"""Checkpoint/restore and program-swap tests.

Two properties underpin warm candidate evaluation:

* ``restore(checkpoint())`` is a *complete* rewind: database contents,
  flags, secondary indexes, supports, program/plans, clock and the
  event/derivation history all return to the snapshot — verified here
  against deep copies, including under randomized mutation sequences
  (inserts, recomputing deletes, batched inserts, key updates).
* ``restore(checkpoint)`` + ``swap_program(new)`` leaves the engine where
  evaluating ``new`` from scratch would, provided every rule in the program
  delta — the rules in which the two programs differ — was dormant at the
  checkpoint (here: taken before the first ``Link``, which every rule
  joins).  Verified against fresh engines across rule removals, additions
  and modifications, randomized, and against the scan-based oracle for
  what the engine does next.
"""

import random

import pytest

from reference_engine import NaiveEngine
from repro.ndlog import Engine, make_tuple, parse_program
from repro.ndlog.tuples import TableSchema


PROGRAM = """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 9.
r3 Path(@A,C,Total) :- Link(@A,B,Cost1), Path(@B,C,Cost2), Total := Cost1 + Cost2, Total < 12.
r4 Reach(@A,B) :- Path(@A,B,Cost).
"""

ALT_RULES = {
    "drop_r3": """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 9.
r4 Reach(@A,B) :- Path(@A,B,Cost).
""",
    "modify_r2": """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 5.
r3 Path(@A,C,Total) :- Link(@A,B,Cost1), Path(@B,C,Cost2), Total := Cost1 + Cost2, Total < 12.
r4 Reach(@A,B) :- Path(@A,B,Cost).
""",
    "add_r5": """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r2 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 9.
r3 Path(@A,C,Total) :- Link(@A,B,Cost1), Path(@B,C,Cost2), Total := Cost1 + Cost2, Total < 12.
r4 Reach(@A,B) :- Path(@A,B,Cost).
r5 Hub(@A) :- Path(@A,B,Cost), Cost > 6.
""",
    "drop_and_add": """
r1 Link(@B,A,Cost) :- Link(@A,B,Cost).
r3 Path(@A,C,Total) :- Link(@A,B,Cost1), Path(@B,C,Cost2), Total := Cost1 + Cost2, Total < 12.
r4 Reach(@A,B) :- Path(@A,B,Cost).
r6 Path(@A,B,Cost) :- Link(@A,B,Cost), Cost < 7.
""",
}


def links(pairs):
    return [make_tuple("Link", a, b, cost) for a, b, cost in pairs]


def engine_fingerprint(engine):
    """Everything restore() promises to rewind, in comparable form.

    Indexes are lazy (a column materialises on first probe, possibly between
    the two fingerprints being compared), so instead of comparing the bucket
    dicts structurally we assert they are *consistent* with the live tuple
    sets — which, combined with the tuple-set comparison, pins the same
    observable lookup behaviour.
    """
    db = engine.database
    assert db.index_consistent()
    return (
        {table: frozenset(tuples) for table, tuples in db._tables.items()
         if tuples},
        dict(db._flags),
        {head: frozenset(supports)
         for head, supports in engine._supports.items()},
        engine.clock,
        tuple(engine.events),
        tuple(engine.derivations),
        {key: frozenset(bodies)
         for key, bodies in engine._recorded_bodies.items() if bodies},
        engine.program.to_ndlog(),
    )


def semantic_fingerprint(engine):
    """What a warm switch promises: tuples, flags, supports."""
    db = engine.database
    return (
        {table: frozenset(tuples) for table, tuples in db._tables.items()
         if tuples},
        dict(db._flags),
        {head: frozenset(supports)
         for head, supports in engine._supports.items()},
    )


def test_restore_rewinds_inserts_and_removes():
    engine = Engine(parse_program(PROGRAM))
    engine.insert_many(links([(1, 2, 3), (2, 3, 4)]))
    cp = engine.checkpoint()
    before = engine_fingerprint(engine)
    engine.insert(make_tuple("Link", 3, 4, 2))
    engine.remove(make_tuple("Link", 1, 2, 3))
    engine.insert_many(links([(4, 5, 1), (5, 6, 2)]))
    assert engine_fingerprint(engine) != before
    engine.restore(cp)
    assert engine_fingerprint(engine) == before
    # The engine stays fully usable after a restore.
    engine.insert(make_tuple("Link", 3, 4, 2))
    assert engine.contains(make_tuple("Path", 3, 4, 2))


def test_restore_is_repeatable_and_nests():
    engine = Engine(parse_program(PROGRAM))
    engine.insert_many(links([(1, 2, 3)]))
    outer = engine.checkpoint()
    outer_state = engine_fingerprint(engine)
    engine.insert(make_tuple("Link", 2, 3, 4))
    inner = engine.checkpoint()
    inner_state = engine_fingerprint(engine)
    engine.insert(make_tuple("Link", 3, 4, 5))
    engine.restore(inner)
    assert engine_fingerprint(engine) == inner_state
    engine.insert(make_tuple("Link", 3, 4, 1))
    engine.restore(inner)
    assert engine_fingerprint(engine) == inner_state
    engine.restore(outer)
    assert engine_fingerprint(engine) == outer_state


def test_restore_rejects_foreign_and_dead_checkpoints():
    engine = Engine(parse_program(PROGRAM))
    other = Engine(parse_program(PROGRAM))
    cp = engine.checkpoint()
    with pytest.raises(Exception):
        other.restore(cp)
    later = None
    engine.insert(make_tuple("Link", 1, 2, 3))
    later = engine.checkpoint()
    engine.restore(cp)           # invalidates `later`
    with pytest.raises(Exception):
        engine.restore(later)


def test_restore_covers_primary_key_updates():
    schemas = {"Best": TableSchema("Best", ("A", "Cost"),
                                   primary_key=("A",))}
    program = parse_program("""
u1 Best(@A,Cost) :- Link(@A,B,Cost).
""")
    engine = Engine(program, schemas=schemas)
    engine.insert(make_tuple("Link", 1, 2, 7))
    cp = engine.checkpoint()
    before = engine_fingerprint(engine)
    engine.insert(make_tuple("Link", 1, 3, 5))   # evicts Best(1,7)
    assert engine.contains(make_tuple("Best", 1, 5))
    engine.restore(cp)
    assert engine_fingerprint(engine) == before
    assert engine.contains(make_tuple("Best", 1, 7))


def test_restore_randomized_round_trip():
    rng = random.Random(20260730)
    program = parse_program(PROGRAM)
    nodes = list(range(1, 7))
    for _trial in range(20):
        engine = Engine(program)
        live = []
        for _ in range(rng.randrange(0, 6)):
            tup = make_tuple("Link", rng.choice(nodes), rng.choice(nodes),
                             rng.randrange(1, 10))
            engine.insert(tup)
            live.append(tup)
        cp = engine.checkpoint()
        snapshot = engine_fingerprint(engine)
        for _ in range(rng.randrange(1, 12)):
            action = rng.random()
            tup = make_tuple("Link", rng.choice(nodes), rng.choice(nodes),
                             rng.randrange(1, 10))
            if action < 0.5:
                engine.insert(tup)
                live.append(tup)
            elif action < 0.75 and live:
                engine.remove(live.pop(rng.randrange(len(live))))
            else:
                engine.insert_batch([
                    make_tuple("Link", rng.choice(nodes), rng.choice(nodes),
                               rng.randrange(1, 10))
                    for _ in range(rng.randrange(1, 4))])
        engine.restore(cp)
        assert engine_fingerprint(engine) == snapshot, \
            f"trial {_trial}: restore diverged"


def replayed_under(program, tuples):
    engine = Engine(program)
    engine.insert_many(list(tuples))
    return engine


def warm_engine(base, tuples):
    """An engine that has run ``base`` over ``tuples`` since its checkpoint
    — taken while ``Link`` was empty, so every rule was dormant."""
    engine = Engine(base)
    checkpoint = engine.checkpoint()
    engine.insert_many(list(tuples))
    return engine, checkpoint


@pytest.mark.parametrize("variant", sorted(ALT_RULES))
def test_program_delta_matches_cold_rebuild(variant):
    base = parse_program(PROGRAM)
    target = parse_program(ALT_RULES[variant])
    tuples = links([(1, 2, 3), (2, 3, 4), (3, 4, 2), (4, 5, 8), (1, 5, 6)])

    warm, cp = warm_engine(base, tuples)
    warm.restore(cp)
    warm.swap_program(target)
    warm.insert_many(list(tuples))
    assert semantic_fingerprint(warm) == \
        semantic_fingerprint(replayed_under(target, tuples)), variant

    # The checkpoint remembers its program: restore swaps back.
    warm.restore(cp)
    assert warm.program is base
    warm.insert_many(list(tuples))
    assert semantic_fingerprint(warm) == \
        semantic_fingerprint(replayed_under(base, tuples))


def test_program_delta_randomized_equivalence():
    rng = random.Random(7)
    base = parse_program(PROGRAM)
    variants = [parse_program(text) for text in ALT_RULES.values()]
    nodes = list(range(1, 8))
    warm, cp = warm_engine(base, [])
    for trial in range(15):
        tuples = [make_tuple("Link", rng.choice(nodes), rng.choice(nodes),
                             rng.randrange(1, 11))
                  for _ in range(rng.randrange(2, 9))]
        target = rng.choice(variants)
        warm.restore(cp)
        warm.swap_program(target)
        warm.insert_many(list(tuples))
        cold = replayed_under(target, tuples)
        assert semantic_fingerprint(warm) == semantic_fingerprint(cold), \
            f"trial {trial}"
        # And the switched engine behaves like the cold one incrementally.
        probe = make_tuple("Link", rng.choice(nodes), rng.choice(nodes), 3)
        assert sorted(map(str, warm.insert(probe))) == \
            sorted(map(str, cold.insert(probe)))


def test_program_delta_after_delta_chains():
    """base -> variant A -> (restore) -> variant B, as the warm loop does."""
    base = parse_program(PROGRAM)
    tuples = links([(1, 2, 3), (2, 3, 4), (3, 4, 2)])
    warm, cp = warm_engine(base, tuples)
    for text in ALT_RULES.values():
        target = parse_program(text)
        warm.restore(cp)
        warm.swap_program(target)
        warm.insert_many(list(tuples))
        assert semantic_fingerprint(warm) == \
            semantic_fingerprint(replayed_under(target, tuples))


def test_delta_engine_agrees_with_naive_oracle():
    """After a switch, continued evaluation matches the scan-based oracle."""
    base = parse_program(PROGRAM)
    target = parse_program(ALT_RULES["drop_and_add"])
    tuples = links([(1, 2, 3), (2, 3, 4), (3, 4, 2)])
    warm, cp = warm_engine(base, tuples)
    warm.restore(cp)
    warm.swap_program(target)
    warm.insert_many(list(tuples))
    oracle = NaiveEngine(target)
    oracle.insert_many(list(tuples))
    extra = make_tuple("Link", 4, 1, 1)
    warm.insert(extra)
    oracle.insert(extra)
    for table in ("Link", "Path", "Reach"):
        assert warm.tuples(table) == oracle.tuples(table), table
    removal = make_tuple("Link", 2, 3, 4)
    warm.remove(removal)
    oracle.remove(removal)
    for table in ("Link", "Path", "Reach"):
        assert warm.tuples(table) == oracle.tuples(table), table
