"""Shared rule-plan cache: cross-program reuse and counter plumbing.

The cache key is the rule's structural digest, so near-identical candidate
programs (one rule edited, the rest untouched) re-index against cached
plans — the property the warm candidate switch and the distributed
workers' ``RuntimeCache`` rely on.
"""

import pytest

from repro.ndlog.engine import Engine
from repro.ndlog.parser import parse_program
from repro.ndlog.plan import PLAN_CACHE, PlanCache, rule_digest
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


def test_digest_ignores_object_identity_but_not_structure():
    rule_a = parse_program(CHAIN).rules[0]
    rule_b = parse_program(CHAIN).rules[0]
    assert rule_a is not rule_b
    assert rule_digest(rule_a) == rule_digest(rule_b)
    edited = parse_program(CHAIN_EDITED).rules[1]
    assert rule_digest(rule_a) != rule_digest(edited)


def test_lru_eviction_keeps_capacity():
    cache = PlanCache(capacity=2)
    rules = parse_program(CHAIN).rules
    for rule in rules:
        cache.get(rule)
    assert len(cache) == 2
    # r1 was evicted: fetching it again is a miss.
    misses = cache.misses
    cache.get(rules[0])
    assert cache.misses == misses + 1


def test_engine_reindex_hits_shared_cache():
    PLAN_CACHE.clear()
    old = parse_program(CHAIN)
    new = parse_program(CHAIN_EDITED)
    engine = Engine(old, record_events=False)
    baseline = PLAN_CACHE.stats()
    assert baseline["misses"] == 3
    second = Engine(old, record_events=False)
    after = PLAN_CACHE.stats()
    assert after["misses"] == 3 and after["hits"] >= 3
    # Warm switch: only the edited rule compiles anew.
    cp = engine.checkpoint()
    engine.restore(cp)
    engine.swap_program(new)
    final = PLAN_CACHE.stats()
    assert final["misses"] == 4
    # r1 is the one rule table A triggers, under both programs.
    trigger = NDTuple("A", (1, 2))
    (r1_plan, _position), = engine.plans_triggered_by(trigger)
    assert r1_plan is second.plans_triggered_by(trigger)[0][0]


def test_runtime_cache_exposes_plan_cache_stats():
    from repro.distrib.jobs import RuntimeCache
    stats = RuntimeCache().plan_cache_stats()
    assert stats == PLAN_CACHE.stats()
    assert set(stats) == {"hits", "misses", "size", "capacity"}


def test_warm_engine_stats_event_carries_plan_cache_counters():
    from repro.events import WarmEngineStats
    event = WarmEngineStats(hits=1)
    # New fields default to zero so old wire records still decode.
    assert event.plan_cache_hits == 0 and event.plan_cache_misses == 0
    assert WarmEngineStats(plan_cache_hits=7).plan_cache_hits == 7
