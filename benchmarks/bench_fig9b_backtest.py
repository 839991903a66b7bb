"""Figure 9b: time to backtest the first k Q1 candidates, sequentially versus
with multi-query optimization.

The paper shows that jointly backtesting all nine Q1 candidates with the
tagged "backtesting program" takes about a third of the sequential time.  The
shapes to reproduce: both curves grow with k, and the multi-query curve grows
more slowly (most controller computation is shared across candidates).
"""

from __future__ import annotations

import multiprocessing
import time

from repro.backtest import Backtester

from conftest import run_once


def _candidates(diagnosis_cache, count):
    report = diagnosis_cache("Q1", max_candidates=14)
    return report.exploration.candidates[:count]


def test_fig9b_sequential_vs_multiquery(benchmark, scenario_cache, diagnosis_cache):
    # A longer replay trace makes per-packet work dominate the fixed set-up
    # costs, which is the regime Figure 9b measures (the paper replays the
    # captured traces continuously).
    from repro.scenarios.q1_copy_paste import build_q1
    scenario = build_q1(repetitions=10)
    candidates = _candidates(diagnosis_cache, 9)

    def measure():
        series = []
        for k in range(1, len(candidates) + 1):
            subset = candidates[:k]
            started = time.perf_counter()
            Backtester(scenario, ks_threshold=scenario.ks_threshold
                       ).evaluate_all(subset)
            sequential = time.perf_counter() - started
            started = time.perf_counter()
            joint_report = Backtester(
                scenario, ks_threshold=scenario.ks_threshold,
                multiquery=True).evaluate_all(subset)
            joint = time.perf_counter() - started
            series.append((k, sequential, joint, joint_report.sharing_ratio()))
        return series

    series = run_once(benchmark, measure)
    print("\nFigure 9b (seconds to backtest first k candidates):")
    print(f"{'k':>3} {'sequential':>12} {'multi-query':>12} {'shared%':>9}")
    for k, sequential, joint, sharing in series:
        print(f"{k:>3} {sequential:>12.3f} {joint:>12.3f} {sharing:>8.0%}")
    # Both curves grow with k ...
    assert series[-1][1] > series[0][1]
    assert series[-1][2] > series[0][2]
    # ... and the joint backtest shares a meaningful fraction of the work.
    # (At simulator scale the absolute speedup is smaller than the paper's 3x
    # because data-plane forwarding, which cannot be shared, dominates the
    # cost; see EXPERIMENTS.md.)
    assert series[-1][3] > 0.1


def test_fig9b_parallel_and_batched_modes(benchmark, scenario_cache,
                                          diagnosis_cache):
    """The full 9-candidate Q1 workload under every pipeline mode.

    Parallel dispatch (workers=4, a spawn fleet) and batched PacketIn replay
    must reproduce the serial accepted set exactly; on a multi-core host the
    parallel multiquery run must also beat the serial multiquery time (PR 1's
    best mode).  On a single core only the parity assertions apply — fleet
    start-up cannot be amortised without parallel hardware.
    """
    from repro.scenarios.q1_copy_paste import build_q1
    scenario = build_q1(repetitions=10)
    candidates = _candidates(diagnosis_cache, 9)
    workers = 4

    def measure():
        rows = []
        for label, factory, mode_workers in (
                ("sequential", lambda: Backtester(
                    scenario, ks_threshold=scenario.ks_threshold), None),
                ("seq+batched", lambda: Backtester(
                    scenario, ks_threshold=scenario.ks_threshold,
                    replay_batch_size=32), None),
                ("multiquery", lambda: Backtester(
                    scenario, ks_threshold=scenario.ks_threshold,
                    multiquery=True), None),
                ("parallel x4", lambda: Backtester(
                    scenario, ks_threshold=scenario.ks_threshold), workers),
                ("mq parallel x4", lambda: Backtester(
                    scenario, ks_threshold=scenario.ks_threshold,
                    multiquery=True), workers)):
            started = time.perf_counter()
            backtester = factory()
            if mode_workers is None:
                report = backtester.evaluate_all(candidates)
            else:
                report = backtester.evaluate_all(candidates,
                                                 workers=mode_workers)
            elapsed = time.perf_counter() - started
            rows.append((label, elapsed, [r.accepted for r in report.results]))
        return rows

    rows = run_once(benchmark, measure)
    print("\nFigure 9b pipeline modes (9 Q1 candidates):")
    timings = {}
    for label, elapsed, accepted in rows:
        timings[label] = elapsed
        print(f"{label:>16} {elapsed:>10.3f}s  accepted={sum(accepted)}")
    reference = rows[0][2]
    for label, _, accepted in rows[1:]:
        assert accepted == reference, f"{label} diverged from sequential"
    # Pool setup costs real time; only assert the speedup where 4 workers
    # actually have 4 cores to run on (2-core CI boxes would flake).
    if multiprocessing.cpu_count() >= 4:
        assert timings["mq parallel x4"] < timings["multiquery"], \
            "parallel multiquery should beat serial multiquery on multi-core"


def test_fig9b_multiquery_matches_sequential_verdicts(scenario_cache,
                                                      diagnosis_cache, benchmark):
    """Multi-query optimization is an optimization, not an approximation:
    accept/reject verdicts must match the sequential backtester."""
    scenario = scenario_cache("Q1")
    candidates = _candidates(diagnosis_cache, 9)

    def verdicts():
        sequential = Backtester(scenario, ks_threshold=scenario.ks_threshold
                                ).evaluate_all(candidates)
        joint = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                           multiquery=True).evaluate_all(candidates)
        return ([r.accepted for r in sequential.results],
                [r.accepted for r in joint.results])

    sequential_verdicts, joint_verdicts = run_once(benchmark, verdicts)
    print(f"\nsequential verdicts: {sequential_verdicts}")
    print(f"multi-query verdicts: {joint_verdicts}")
    assert sequential_verdicts == joint_verdicts
