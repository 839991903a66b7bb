"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(Section 5).  Benchmarks print the rows/series they reproduce so that running
``pytest benchmarks/ --benchmark-only -s`` yields a textual version of each
table and figure alongside the timing numbers.
"""

from __future__ import annotations

import pytest

from repro.api import RepairConfig, RepairSession
from repro.scenarios import build_scenario


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def scenario_cache():
    """Scenario instances shared across benchmarks (construction is cheap but
    the recorded traces are reused)."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_scenario(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def diagnosis_cache(scenario_cache):
    """Full diagnosis reports per scenario, computed at most once."""
    cache = {}

    def get(name: str, **knobs):
        key = (name, tuple(sorted(knobs.items())))
        if key not in cache:
            cache[key] = RepairSession(RepairConfig(**knobs),
                                       scenario=scenario_cache(name)).run()
        return cache[key]

    return get
