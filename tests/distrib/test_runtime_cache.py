"""Worker-side runtime cache and candidate-streaming tests.

Covers the two connection-cost refinements of the fabric:

* repeated ``evaluate_all`` calls with the same scenario + configuration
  reuse the worker's scenario and backtester, baseline included (the
  :class:`RuntimeCache`, keyed by :func:`job_digest`), and
* jobs can ship as candidate-free headers (:func:`strip_candidates`) with
  candidate wires arriving per dispatched item — the socket transport's
  protocol — without changing any report bit.
"""

import pytest

from repro.backtest import Backtester
from repro.distrib import (DistribError, JobRuntime, RuntimeCache, Scheduler,
                           build_job_wire, job_digest, strip_candidates)
from repro.repair import ChangeConstant, DeleteSelection, RepairCandidate
from repro.scenarios import build_scenario


@pytest.fixture()
def scenario():
    return build_scenario("Q1", repetitions=1)


@pytest.fixture()
def candidates():
    return [
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                        cost=1.1, description="r7: Swi==2 -> Swi==3"),
        RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                        cost=2.0, description="r7: delete Swi==2"),
    ]


def report_rows(report):
    return [(r.candidate.tag, r.accepted, r.ks, r.stats.delivered_per_host)
            for r in report.results]


def test_job_digest_keys_runtime_not_candidates(scenario, candidates):
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    wire_a = build_job_wire(backtester, candidates[:1])
    wire_b = build_job_wire(backtester, candidates)
    assert job_digest(wire_a) == job_digest(wire_b)
    other = Backtester(scenario, ks_threshold=0.5)
    assert job_digest(build_job_wire(other, candidates)) != job_digest(wire_a)
    cut = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                     trace_limit=10)
    assert job_digest(build_job_wire(cut, candidates)) != job_digest(wire_a)


def test_runtime_cache_reuses_scenario_and_backtester(scenario, candidates):
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    wire = build_job_wire(backtester, candidates)
    cache = RuntimeCache()
    first = JobRuntime(wire, cache=cache)
    outcomes_first = [first.evaluate(i) for i in range(len(first))]
    baseline = first.backtester.baseline()
    second = JobRuntime(wire, cache=cache)
    outcomes_second = [second.evaluate(i) for i in range(len(second))]
    assert cache.misses == 1 and cache.hits == 1
    assert second.backtester is first.backtester
    assert second.scenario is first.scenario
    assert second.backtester.baseline() is baseline   # served, not replayed
    # The runtime answers with outcome wires; the coordinator decodes them.
    assert [o["result"]["ks"] for o in outcomes_first] == \
        [o["result"]["ks"] for o in outcomes_second]
    assert [o["result"]["accepted"] for o in outcomes_first] == \
        [o["result"]["accepted"] for o in outcomes_second]


def test_runtime_cache_capacity_evicts_lru(scenario, candidates):
    cache = RuntimeCache(capacity=1)
    wire_a = build_job_wire(
        Backtester(scenario, ks_threshold=0.1), candidates)
    wire_b = build_job_wire(
        Backtester(scenario, ks_threshold=0.2), candidates)
    JobRuntime(wire_a, cache=cache)
    JobRuntime(wire_b, cache=cache)
    JobRuntime(wire_a, cache=cache)
    assert cache.hits == 0 and cache.misses == 3


def test_header_jobs_stream_candidates_per_item(scenario, candidates):
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    wire = build_job_wire(backtester, candidates)
    header = strip_candidates(wire)
    assert "candidates" not in header
    assert header["candidate_count"] == len(candidates)
    full = JobRuntime(wire)
    streamed = JobRuntime(header)
    for index in range(len(candidates)):
        reference = full.evaluate(index)
        outcome = streamed.evaluate(index,
                                    candidate_wire=wire["candidates"][index])
        assert outcome["result"]["ks"] == reference["result"]["ks"]
        assert outcome["result"]["accepted"] == \
            reference["result"]["accepted"]
    with pytest.raises(DistribError, match="not shipped"):
        JobRuntime(header).evaluate(0)


def test_inprocess_scheduler_hits_cache_across_evaluate_all(scenario,
                                                            candidates):
    with Scheduler(transport="inprocess") as scheduler:
        backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
        first = backtester.evaluate_all(candidates, scheduler=scheduler)
        second = backtester.evaluate_all(candidates, scheduler=scheduler)
        cache = scheduler.transport.runtime_cache
        assert cache.misses == 1 and cache.hits == 1
    assert report_rows(first) == report_rows(second)


def test_socket_round_repeats_with_warm_worker_cache(scenario, candidates):
    """Two jobs over one socket transport: the second reuses the worker's
    cached runtime (scenario rebuild skipped) and reports stay identical."""
    with Scheduler(transport="socket", workers=1,
                   result_timeout=120.0) as scheduler:
        backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
        first = backtester.evaluate_all(candidates, scheduler=scheduler)
        second = backtester.evaluate_all(candidates, scheduler=scheduler)
    assert report_rows(first) == report_rows(second)
