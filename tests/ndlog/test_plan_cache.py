"""Shared rule-plan cache: cross-program reuse and counter plumbing.

Code is keyed by the rule's structural shape and bindings by rule, so
near-identical candidate programs (one rule edited, the rest untouched)
index against cached plans — the property every candidate's engine and the
distributed workers' ``RuntimeCache`` rely on — and rules that differ
only in their constants share compiled code.
"""

import dataclasses

import pytest

from reference_engine import NaiveEngine
from repro.ndlog.ast import Assignment, BinOp, Const, Program, Selection, Var
from repro.ndlog.engine import Engine
from repro.ndlog.parser import parse_program
from repro.ndlog.plan import PLAN_CACHE, PlanCache, rule_shape
from repro.ndlog.tuples import NDTuple

CHAIN = """
    r1 B(@X, Y) :- A(@X, Y).
    r2 C(@X, Y) :- B(@X, Y).
    r3 D(@X, Y) :- C(@X, Y), B(@X, Y).
"""

#: r2 edited, r1/r3 verbatim — the shape of a repair candidate.
CHAIN_EDITED = CHAIN.replace("r2 C(@X, Y) :- B(@X, Y).",
                             "r2 C(@X, Y) :- B(@X, Y), Y > 0.")


def test_identical_rules_share_one_plan_across_programs():
    cache = PlanCache()
    old = parse_program(CHAIN)
    new = parse_program(CHAIN_EDITED)
    old_plans = {rule.name: cache.get(rule) for rule in old.rules}
    new_plans = {rule.name: cache.get(rule) for rule in new.rules}
    assert new_plans["r1"] is old_plans["r1"]
    assert new_plans["r3"] is old_plans["r3"]
    assert new_plans["r2"] is not old_plans["r2"]
    assert cache.stats() == {"hits": 2, "misses": 4, "size": 4,
                             "capacity": cache.capacity}


def test_shape_ignores_object_identity_but_not_structure():
    rule_a = parse_program(CHAIN).rules[0]
    rule_b = parse_program(CHAIN).rules[0]
    assert rule_a is not rule_b
    assert rule_shape(rule_a) == rule_shape(rule_b)
    edited = parse_program(CHAIN_EDITED).rules[1]
    assert rule_shape(rule_a) != rule_shape(edited)


def test_lru_eviction_keeps_capacity():
    cache = PlanCache(capacity=2)
    rules = parse_program(CHAIN).rules
    for rule in rules:
        cache.get(rule)
    assert cache.stats()["size"] == 2
    # r1 was evicted: fetching it again is a miss.
    misses = cache.misses
    cache.get(rules[0])
    assert cache.misses == misses + 1


def test_engine_reindex_hits_shared_cache():
    PLAN_CACHE.clear()
    old = parse_program(CHAIN)
    new = parse_program(CHAIN_EDITED)
    engine = Engine(old)
    baseline = PLAN_CACHE.stats()
    assert baseline["misses"] == 3
    second = Engine(old)
    after = PLAN_CACHE.stats()
    assert after["misses"] == 3 and after["hits"] >= 3
    # The edited program: only the edited rule compiles anew.
    edited = Engine(new)
    final = PLAN_CACHE.stats()
    assert final["misses"] == 4
    # r1 is the one rule table A triggers, under both programs.
    trigger = NDTuple("A", (1, 2))
    (_ordinal, r1_plan, _position), = edited.plans_triggered_by(trigger)
    assert r1_plan is engine.plans_triggered_by(trigger)[0][1]
    assert r1_plan is second.plans_triggered_by(trigger)[0][1]


def test_warm_engine_stats_event_carries_plan_cache_counters():
    from repro.events import WarmEngineStats
    event = WarmEngineStats(hits=1)
    # New fields default to zero so old wire records still decode.
    assert event.plan_cache_hits == 0 and event.plan_cache_misses == 0
    assert WarmEngineStats(plan_cache_hits=7).plan_cache_hits == 7


#: Two selections on quoted constants, and one selection whose constant holds
#: the quotes: ``to_ndlog`` renders both rules as the same text.
QUOTED = parse_program(
    'r1 B(@N, X, Y) :- A(@N, X, Y), X == "1", Y == "2".').rules[0]
SMUGGLED = dataclasses.replace(QUOTED, selections=(
    Selection(BinOp("==", Var("X"), Const('1", Y == "2'))),))
#: Head values a constant writes: equal under ``==``, of four types.
TYPED = [dataclasses.replace(
    parse_program("r2 C(@N, Y) :- A(@N, X, Z).").rules[0],
    assignments=(Assignment("Y", Const(value)),))
    for value in (1, True, 1.0, "1")]
INPUTS = [NDTuple("A", ("n", "1", "2")), NDTuple("A", ("n", '1", Y == "2', 0))]


def _derived(rules):
    """What the engine and the reference engine derive from ``INPUTS``, each
    rule in a program of its own, in order, with the shared cache warm from
    the rules before it."""
    found = []
    for rule in rules:
        program = Program(rules=[rule])
        engine, oracle = Engine(program), NaiveEngine(program)
        for tup in INPUTS:
            engine.insert(tup)
            oracle.insert(tup)
        table = rule.head.table
        derived = sorted((repr(t.values) for t in engine.database.tuples(table)))
        assert derived == sorted(
            repr(t.values) for t in oracle.database.tuples(table)), rule
        found.append(derived)
    return found


@pytest.mark.parametrize("order", [(QUOTED, SMUGGLED), (SMUGGLED, QUOTED)],
                         ids=["quoted-first", "smuggled-first"])
def test_rules_of_one_text_but_two_structures_never_share_a_plan(order):
    assert QUOTED.to_ndlog() == SMUGGLED.to_ndlog()
    PLAN_CACHE.clear()
    derived = dict(zip(order, _derived(order)))
    assert derived[QUOTED] == ["('n', '1', '2')"]
    assert derived[SMUGGLED] == ["""('n', '1", Y == "2', 0)"""]


def test_equal_constants_of_other_types_keep_their_type():
    PLAN_CACHE.clear()
    derived = _derived(TYPED + TYPED[::-1])
    assert derived[:4] == [["('n', 1)"], ["('n', True)"], ["('n', 1.0)"],
                           ["('n', '1')"]]
    assert derived[4:] == derived[:4][::-1]
    assert len({PLAN_CACHE.get(rule) for rule in TYPED}) == 4
