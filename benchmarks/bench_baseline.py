"""Tracked perf baseline: engine micro workloads + Figure 9b backtest modes.

Unlike the figure benchmarks (which print a table once), this harness writes
a machine-readable ``BENCH_baseline.json`` at the repo root so future PRs
have a trajectory to compare against::

    PYTHONPATH=src python benchmarks/bench_baseline.py            # full sizes
    PYTHONPATH=src python benchmarks/bench_baseline.py --smoke    # seconds

Measured workloads:

* ``engine.join_insert`` (quiet, the backtest-worker configuration and the
  primary tracked number), ``engine.join_insert_recorded`` (events on) and
  ``engine.delete`` — the indexed engine vs the scan-based oracle (same
  workloads as ``bench_engine_micro.py``);
* ``engine.rule_scaling_N`` — Figure 10-style N-rule programs (schema v5):
  insert throughput under a wide rule set, plus the cold-vs-warm engine
  build split that measures what the shared rule-plan cache saves when a
  second engine (a repair candidate) compiles the same rules, with the
  plan-cache hit/miss counters recorded;
* ``fig9b.*`` — backtesting the Q1 candidate set under every pipeline mode:
  ``sequential`` (per-candidate replay, warm engine switching),
  ``sequential_cold`` (per-candidate cold rebuild — the warm/cold
  end-to-end comparison), ``sequential_batched`` (batched PacketIn
  fixpoints), ``multiquery`` (shared trunk), ``parallel`` and
  ``multiquery_parallel`` (process-sharded candidates);
* ``warm_vs_cold`` — per-candidate *setup* amortization (schema v3): how
  long producing a replay-ready engine+controller+simulator takes per
  candidate via cold rebuild vs warm checkpoint-restore + rule delta, at
  the Fig 9b candidate count and at ~100 candidates;
* ``static_vet`` — static candidate vetting (schema v4): the full Q1
  explorer candidate set backtested with vetting on vs off.  The row
  records how many candidates the analyzer vetoed (replays saved) and
  asserts the accepted verdicts are identical either way — the soundness
  contract of ``repro.analysis.vet`` measured end to end;
* ``distrib.*`` — the same candidate set through the distributed backtest
  fabric (``repro.distrib``): a ``workers=N`` scaling row per transport
  (spawn coordinator always; socket coordinator in full runs);
* ``telemetry_overhead`` — the quiet join_insert workload with telemetry
  off vs a ``repro.obs`` tracer attached (schema v6): the disabled
  number is the free-when-off claim, the traced one prices the
  ``trace_fixpoints`` deep-dive mode;
* ``service_throughput`` — whole repair sessions per minute through the
  repair-service stack (schema v8): a ``RepairServiceDaemon`` + HTTP
  front door with a warmed worker fleet, timed at 1 vs 4 workers.  The
  row prices the service layer itself (scheduling, frames, HTTP), since
  the smoke-size Q1 session body is sub-second;
* ``smoke_reference`` — smoke-size timings recorded alongside every run,
  which ``tests/perf/test_bench_regress.py`` (the ``bench_regress``
  marker) re-measures on each tier-1 run and compares with a generous
  tolerance, so perf regressions fail loudly instead of rotting silently.

All modes must agree on the accepted set — the harness asserts it, so the
baseline doubles as an end-to-end parity check.  A smoke-size invocation
runs in the tier-1 suite (``tests/backtest/test_bench_baseline_smoke.py``).

See ``EXPERIMENTS.md`` for how to read and compare the emitted JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
for path in (str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_engine_micro import (  # noqa: E402
    BENCH_DELETE_SIZE,
    BENCH_JOIN_SIZE,
    BENCH_RULE_SCALES,
    RULE_SCALING_INSERTS,
    SMOKE_DELETE_SIZE,
    SMOKE_JOIN_SIZE,
    SMOKE_RULE_SCALE,
    SMOKE_RULE_SCALING_INSERTS,
    run_delete_workload,
    run_insert_workload,
    run_insert_workload_quiet,
    run_rule_scaling_workload,
)

from repro.backtest import Backtester  # noqa: E402
from repro.backtest.replay import WarmEvaluationState  # noqa: E402
from repro.distrib import Scheduler  # noqa: E402
from repro.ndlog import Engine, NaiveEngine  # noqa: E402
from repro.ndlog.plan import PLAN_CACHE  # noqa: E402
from repro.repair import ChangeConstant, DeleteSelection, RepairCandidate  # noqa: E402
from repro.repair.apply import apply_candidate  # noqa: E402
from repro.scenarios import build_scenario  # noqa: E402
from repro.sdn.network import NetworkSimulator  # noqa: E402

SCHEMA_VERSION = 8
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_baseline.json"

#: Batch size used for the batched-replay modes.
REPLAY_BATCH_SIZE = 32


def _smoke_candidates() -> List[RepairCandidate]:
    """Three hand-written Q1 candidates (no diagnosis run needed)."""
    return [
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 3),),
                        cost=1.1, description="r7: Swi==2 -> Swi==3"),
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2, 4),),
                        cost=1.3, description="r7: Swi==2 -> Swi==4"),
        RepairCandidate(edits=(DeleteSelection("r7", 0, "Swi == 2"),),
                        cost=2.0, description="r7: delete Swi==2"),
    ]


def _diagnosed_candidates(count: int) -> List[RepairCandidate]:
    """The first ``count`` candidates the meta-provenance explorer proposes
    for Q1 — the same workload as ``bench_fig9b_backtest.py``."""
    from repro.api import repair
    report = repair("Q1", max_candidates=14)
    return report.exploration.candidates[:count]


#: Repetitions per engine micro row; the recorded value is the minimum.
ENGINE_REPEATS = 3


@contextlib.contextmanager
def _gc_paused():
    """Collect, then keep the collector off for a timed region.

    The regions timed under this are single-digit milliseconds or less,
    where a generation-2 collection landing inside one dwarfs the
    workload — and *which* region it lands in depends on every allocation
    the process made before, i.e. on what else ran in it.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _measure(runner, engine_cls, size, repeats: int = ENGINE_REPEATS):
    """Best-of-``repeats`` with the GC paused during the timed region.

    A scheduler preemption inside one run is as large as the workload;
    the minimum over a few GC-free runs is the stable, comparable number.
    """
    timings = []
    result = None
    for rep in range(repeats):
        with _gc_paused():
            elapsed, rep_result = runner(engine_cls, size)
        timings.append(elapsed)
        assert result is None or rep_result == result, \
            "engine workload was not deterministic across repetitions"
        result = rep_result
    return min(timings), result


def bench_engine(join_size: int, delete_size: int,
                 rule_scales=BENCH_RULE_SCALES,
                 rule_inserts: int = RULE_SCALING_INSERTS) -> Dict:
    out: Dict[str, Dict] = {}
    # join_insert (quiet) is the primary tracked row: record_events=False is
    # how backtest workers run the engine.  The recorded companion row keeps
    # the event-log overhead visible as its own trajectory.
    for label, runner, size in (
            ("join_insert", run_insert_workload_quiet, join_size),
            ("join_insert_recorded", run_insert_workload, join_size),
            ("delete", run_delete_workload, delete_size)):
        indexed_elapsed, indexed_result = _measure(runner, Engine, size)
        naive_elapsed, naive_result = _measure(runner, NaiveEngine, size)
        assert indexed_result == naive_result, \
            f"engine workload {label} diverged from the oracle"
        out[label] = {
            "size": size,
            "indexed_seconds": indexed_elapsed,
            "naive_seconds": naive_elapsed,
            "speedup": naive_elapsed / indexed_elapsed if indexed_elapsed
            else None,
        }
    # Figure 10-style rule scaling.  Engine-only (the naive oracle recomputes
    # the full fixpoint per insert, which is prohibitive at 1000 rules); the
    # cold/warm split re-builds the same program twice and the derived-set
    # identity check plus the plan-cache counters pin the cache semantics.
    for rules in rule_scales:
        cold_builds, warm_builds, insert_timings = [], [], []
        hits = misses = 0
        for _rep in range(ENGINE_REPEATS):
            PLAN_CACHE.clear()
            cold_build, rep_insert, cold_derived = run_rule_scaling_workload(
                Engine, rules, rule_inserts)
            before = PLAN_CACHE.stats()
            warm_build, _warm_insert, warm_derived = \
                run_rule_scaling_workload(Engine, rules, rule_inserts)
            after = PLAN_CACHE.stats()
            assert cold_derived == warm_derived, \
                f"rule_scaling_{rules}: warm rebuild diverged from cold"
            hits = after["hits"] - before["hits"]
            misses = after["misses"] - before["misses"]
            assert hits == rules and misses == 0, \
                f"rule_scaling_{rules}: expected a fully warm plan cache, " \
                f"got {hits} hits / {misses} misses"
            cold_builds.append(cold_build)
            warm_builds.append(warm_build)
            insert_timings.append(rep_insert)
        cold_build = min(cold_builds)
        warm_build = min(warm_builds)
        insert_seconds = min(insert_timings)
        out[f"rule_scaling_{rules}"] = {
            "rules": rules,
            "inserts": rule_inserts,
            "insert_seconds": insert_seconds,
            "cold_build_seconds": cold_build,
            "warm_build_seconds": warm_build,
            "build_speedup": (cold_build / warm_build if warm_build
                              else None),
            "plan_cache_hits": hits,
            "plan_cache_misses": misses,
        }
    return out


def bench_telemetry_overhead(join_size: int) -> Dict:
    """Quiet join_insert with telemetry off vs a tracer attached (schema v6).

    Disabled mode is the engine exactly as backtest workers run it — the
    telemetry counters are two unconditional integer adds per fixpoint plus
    one ``tracer is None`` check per insert, so this row *is* the
    free-when-off claim, tracked against ``engine.join_insert``.  Traced
    mode attaches a ``repro.obs`` tracer (the ``trace_fixpoints`` deep-dive
    configuration), opening one span per insert-triggered fixpoint; the
    recorded factor documents what that costs when someone opts in.
    """
    from repro.obs import Tracer

    class _TracedEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tracer = Tracer()

    disabled_seconds, disabled_result = _measure(
        run_insert_workload_quiet, Engine, join_size)
    traced_seconds, traced_result = _measure(
        run_insert_workload_quiet, _TracedEngine, join_size)
    assert disabled_result == traced_result, \
        "attaching a tracer changed engine results — telemetry must observe"
    return {
        "size": join_size,
        "disabled_seconds": disabled_seconds,
        "traced_seconds": traced_seconds,
        "overhead_factor": (traced_seconds / disabled_seconds
                            if disabled_seconds else None),
    }


def _timed_backtest(factory, candidates, workers: Optional[int] = None):
    backtester = factory()
    started = time.perf_counter()
    if workers is None:
        report = backtester.evaluate_all(candidates)
    else:
        report = backtester.evaluate_all(candidates, workers=workers)
    elapsed = time.perf_counter() - started
    return elapsed, report


def bench_fig9b(scenario, candidates, workers: int,
                batch_size: int = REPLAY_BATCH_SIZE) -> Dict:
    threshold = scenario.ks_threshold

    def sequential():
        return Backtester(scenario, ks_threshold=threshold)

    def sequential_cold():
        return Backtester(scenario, ks_threshold=threshold,
                          warm_engine=False)

    def sequential_batched():
        return Backtester(scenario, ks_threshold=threshold,
                          replay_batch_size=batch_size)

    def multiquery():
        return Backtester(scenario, ks_threshold=threshold, multiquery=True)

    modes = {
        "sequential": (sequential, None),
        # Per-candidate engine/controller/simulator rebuild — what every
        # mode paid before warm switching became the default.
        "sequential_cold": (sequential_cold, None),
        "sequential_batched": (sequential_batched, None),
        "multiquery": (multiquery, None),
        # evaluate_all runs these on a spawn fleet of its own (the scenario
        # carries a ScenarioSpec) once the job passes the min-work gate.
        "parallel": (sequential, workers),
        "multiquery_parallel": (multiquery, workers),
    }

    out: Dict[str, Dict] = {}
    accepted_sets = {}
    for name, (factory, mode_workers) in modes.items():
        elapsed, report = _timed_backtest(factory, candidates, mode_workers)
        accepted_sets[name] = [r.accepted for r in report.results]
        entry = {"seconds": elapsed,
                 "candidates": len(candidates),
                 "accepted": sum(accepted_sets[name])}
        if mode_workers is not None:
            entry["workers"] = mode_workers
        if "batched" in name:
            entry["replay_batch_size"] = batch_size
        if factory is multiquery:
            entry["sharing_ratio"] = report.sharing_ratio()
        out[name] = entry
    reference = accepted_sets["sequential"]
    for name, accepted in accepted_sets.items():
        assert accepted == reference, \
            f"mode {name} disagreed with the sequential accepted set"
    out["packet_count"] = len(scenario.trace()) * len(candidates)
    return out, reference


def _synthetic_candidates(count: int) -> List[RepairCandidate]:
    """``count`` distinct single-constant Q1 edits (all delta-eligible)."""
    return [
        RepairCandidate(edits=(ChangeConstant("r7", 0, "right", 2,
                                              3 + index),),
                        cost=1.0,
                        description=f"r7: Swi==2 -> Swi=={3 + index}")
        for index in range(count)
    ]


def bench_warm_vs_cold(scenario, candidate_sets: Dict[str, List],
                       rounds: int = 5) -> Dict:
    """Per-candidate *setup* cost: cold rebuild vs warm restore+delta.

    Replay cost is identical either way (the replays are bit-identical);
    what warm switching removes is the recurring per-candidate setup —
    fresh engine (static fixpoint included), controller, topology and
    simulator.  Each row times producing a replay-ready simulator for
    every candidate in the set, ``rounds`` times, under both disciplines.
    Candidates whose delta is ineligible fall back to a cold build inside
    the warm loop, exactly as ``evaluate_all`` would.
    """
    out: Dict[str, Dict] = {}
    for label, candidates in candidate_sets.items():
        repaired = [apply_candidate(scenario.program, candidate)
                    for candidate in candidates]

        def cold_setup(item):
            topology = scenario.build_topology()
            controller = scenario.build_controller(
                program=item.program,
                extra_tuples=item.inserted_tuples,
                removed_tuples=item.removed_tuples)
            NetworkSimulator(topology, controller,
                             require_packet_out=scenario.require_packet_out,
                             record_ingress=False)

        def cold_pass():
            for item in repaired:
                cold_setup(item)

        warm = WarmEvaluationState(scenario)
        fallbacks = 0

        def warm_pass():
            nonlocal fallbacks
            for item in repaired:
                if warm.prepare_controller(item) is None:
                    fallbacks += 1
                    cold_setup(item)
                else:
                    warm.reset_data_plane()

        cold_pass()                       # prime caches outside the timers
        warm_pass()
        fallbacks = 0
        with _gc_paused():
            started = time.perf_counter()
            for _ in range(rounds):
                cold_pass()
            cold_seconds = (time.perf_counter() - started) / rounds
        with _gc_paused():
            started = time.perf_counter()
            for _ in range(rounds):
                warm_pass()
            warm_seconds = (time.perf_counter() - started) / rounds
        out[label] = {
            "candidates": len(candidates),
            "rounds": rounds,
            "cold_setup_seconds": cold_seconds,
            "warm_setup_seconds": warm_seconds,
            "per_candidate_speedup": (cold_seconds / warm_seconds
                                      if warm_seconds else None),
            "warm_fallbacks": fallbacks // rounds,
        }
    return out


#: Candidate budget for the static-vet row — deep enough that the
#: explorer's support-tuple insertions (the vetoable class) materialise.
STATIC_VET_CANDIDATES = 25


def bench_static_vet(scenario) -> Dict:
    """Vetting on vs off over the deep Q1 explorer candidate set.

    Unlike the fig9b rows (whose shallow candidate sets contain nothing
    vetoable), the 25-candidate set includes the explorer's support-tuple
    insertions, several of which the constant-propagation pass proves
    inert.  The row records the replays saved and the verdict parity.
    """
    from repro.meta.explorer import MetaProvenanceExplorer
    explorer = MetaProvenanceExplorer(
        scenario.program, scenario.history_index(),
        max_candidates=STATIC_VET_CANDIDATES)
    candidates = explorer.explore_missing(scenario.goal()).candidates
    threshold = scenario.ks_threshold

    started = time.perf_counter()
    vetted = Backtester(scenario, ks_threshold=threshold)
    report_on = vetted.evaluate_all(candidates)
    seconds_on = time.perf_counter() - started

    started = time.perf_counter()
    unvetted = Backtester(scenario, ks_threshold=threshold, static_vet=False)
    report_off = unvetted.evaluate_all(candidates)
    seconds_off = time.perf_counter() - started

    accepted_on = [r.accepted for r in report_on.results]
    accepted_off = [r.accepted for r in report_off.results]
    assert accepted_on == accepted_off, \
        "static vetting changed the accepted set — soundness violation"
    assert report_on.vetoed_count > 0, \
        "the deep Q1 candidate set should contain vetoable candidates"
    return {
        "candidates": len(candidates),
        "vetoed": report_on.vetoed_count,
        "replayed_with_vet": len(candidates) - report_on.vetoed_count,
        "replayed_without_vet": len(candidates),
        "accepted": sum(accepted_on),
        "seconds_with_vet": seconds_on,
        "seconds_without_vet": seconds_off,
    }


def bench_distrib(scenario, candidates, workers: int,
                  reference_accepted: List[bool],
                  include_socket: bool = False) -> Dict:
    """``workers=N`` scaling rows through the distributed backtest fabric."""
    out: Dict[str, Dict] = {}
    transports = ["spawn"] + (["socket"] if include_socket else [])
    for transport in transports:
        with Scheduler(transport=transport, workers=workers) as scheduler:
            backtester = Backtester(scenario,
                                    ks_threshold=scenario.ks_threshold)
            started = time.perf_counter()
            report = backtester.evaluate_all(candidates, scheduler=scheduler)
            elapsed = time.perf_counter() - started
        accepted = [r.accepted for r in report.results]
        assert accepted == reference_accepted, \
            f"distrib transport {transport} disagreed with sequential"
        out[f"{transport}_coordinator"] = {
            "seconds": elapsed,
            "workers": workers,
            "candidates": len(candidates),
            "accepted": sum(accepted),
        }
    return out


#: Worker counts of the service-throughput scaling row.
SERVICE_WORKER_COUNTS = (1, 4)

#: Sessions per worker count in the smoke-size service row.
SMOKE_SERVICE_SESSIONS = 4


def bench_service_throughput(sessions: int,
                             worker_counts=SERVICE_WORKER_COUNTS,
                             max_candidates: int = 4) -> Dict:
    """Repair sessions/minute through the daemon + HTTP front door.

    The fleet is warmed first (worker spawn, first-scenario build) with
    one untimed session per worker, so the row measures the service
    layer's steady state — scheduling, frame protocol, HTTP — not
    process startup.
    """
    import threading

    from repro.api import RepairConfig
    from repro.service import (RepairServiceDaemon, ServiceClient,
                               ServiceHTTPServer)

    config = RepairConfig.for_scenario("Q1", max_candidates=max_candidates)
    out: Dict[str, Dict] = {}
    for workers in worker_counts:
        daemon = RepairServiceDaemon(workers=workers).start()
        server = ServiceHTTPServer(("127.0.0.1", 0), daemon)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(server.url)
        try:
            warm = [client.submit(config, tenant="bench")
                    for _ in range(workers)]
            for ack in warm:
                client.wait(ack["id"], timeout=300)
            started = time.perf_counter()
            acks = [client.submit(config, tenant="bench")
                    for _ in range(sessions)]
            for ack in acks:
                client.wait(ack["id"], timeout=300)
            elapsed = time.perf_counter() - started
        finally:
            server.shutdown()
            daemon.stop(grace=5.0)
        out[f"workers_{workers}"] = {
            "workers": workers,
            "sessions": sessions,
            "seconds": elapsed,
            "jobs_per_minute": sessions / elapsed * 60.0,
        }
    return out


def _smoke_service_throughput() -> Dict:
    """The smoke-size service row the perf tripwire re-measures."""
    return bench_service_throughput(SMOKE_SERVICE_SESSIONS,
                                    worker_counts=(1,))["workers_1"]


#: Rounds used for the smoke-size warm-vs-cold row (sub-ms per pass, so
#: extra rounds buy the tripwire stability for free).
SMOKE_WARM_ROUNDS = 10


def _smoke_warm_vs_cold() -> Dict:
    """The smoke-size warm-vs-cold setup row the perf tripwire re-measures."""
    scenario = build_scenario("Q1", repetitions=1)
    rows = bench_warm_vs_cold(scenario,
                              {"fig9b_workload": _smoke_candidates()},
                              rounds=SMOKE_WARM_ROUNDS)
    return rows["fig9b_workload"]


def _smoke_reference(workers: int, engine: Optional[Dict] = None,
                     fig9b: Optional[Dict] = None,
                     warm_row: Optional[Dict] = None,
                     telemetry_row: Optional[Dict] = None,
                     service_row: Optional[Dict] = None) -> Dict:
    """Smoke-size timings recorded with every baseline.

    ``tests/perf/test_bench_regress.py`` re-measures exactly these
    workloads on each tier-1 run and compares against the committed
    values, so the reference must stay cheap (seconds).  Smoke runs pass
    their already-measured ``engine``/``fig9b``/``warm_row`` sections
    instead of re-timing the identical workloads.
    """
    if engine is not None and fig9b is not None:
        sequential = fig9b["sequential"]
        return {
            "engine": engine,
            "fig9b_sequential": {
                "seconds": sequential["seconds"],
                "candidates": sequential["candidates"],
                "accepted": sequential["accepted"],
                "packet_count": fig9b["packet_count"]
                // sequential["candidates"],
            },
            "warm_vs_cold": (warm_row if warm_row is not None
                             else _smoke_warm_vs_cold()),
            "telemetry_overhead": (
                telemetry_row if telemetry_row is not None
                else bench_telemetry_overhead(SMOKE_JOIN_SIZE)),
            "service_throughput": (
                service_row if service_row is not None
                else _smoke_service_throughput()),
            "workers": workers,
        }
    scenario = build_scenario("Q1", repetitions=1)
    candidates = _smoke_candidates()
    engine = bench_engine(SMOKE_JOIN_SIZE, SMOKE_DELETE_SIZE,
                          rule_scales=(SMOKE_RULE_SCALE,),
                          rule_inserts=SMOKE_RULE_SCALING_INSERTS)
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    started = time.perf_counter()
    report = backtester.evaluate_all(candidates)
    sequential_seconds = time.perf_counter() - started
    return {
        "engine": engine,
        "fig9b_sequential": {
            "seconds": sequential_seconds,
            "candidates": len(candidates),
            "accepted": len(report.accepted()),
            "packet_count": report.packet_count,
        },
        "warm_vs_cold": _smoke_warm_vs_cold(),
        "telemetry_overhead": bench_telemetry_overhead(SMOKE_JOIN_SIZE),
        "service_throughput": _smoke_service_throughput(),
        "workers": workers,
    }


def run_baseline(smoke: bool = False, workers: Optional[int] = None,
                 output: Optional[pathlib.Path] = DEFAULT_OUTPUT) -> Dict:
    cpu_count = multiprocessing.cpu_count()
    if workers is None:
        workers = 2 if smoke else max(2, min(4, cpu_count))
    if smoke:
        scenario = build_scenario("Q1", repetitions=1)
        candidates = _smoke_candidates()
        engine = bench_engine(SMOKE_JOIN_SIZE, SMOKE_DELETE_SIZE,
                              rule_scales=(SMOKE_RULE_SCALE,),
                              rule_inserts=SMOKE_RULE_SCALING_INSERTS)
        batch_size = 8
    else:
        scenario = build_scenario("Q1", repetitions=10)
        candidates = _diagnosed_candidates(9)
        engine = bench_engine(BENCH_JOIN_SIZE, BENCH_DELETE_SIZE)
        batch_size = REPLAY_BATCH_SIZE
    fig9b, reference_accepted = bench_fig9b(scenario, candidates, workers,
                                            batch_size=batch_size)
    warm_sets = {"fig9b_workload": candidates}
    if smoke:
        warm_sets["candidates_24"] = _synthetic_candidates(24)
    else:
        warm_sets["candidates_100"] = _synthetic_candidates(100)
    # In smoke mode this measures exactly the tripwire workload, so the
    # smoke_reference reuses the row instead of re-timing it.
    warm_vs_cold = bench_warm_vs_cold(
        scenario, warm_sets, rounds=SMOKE_WARM_ROUNDS if smoke else 5)
    distrib = bench_distrib(scenario, candidates, workers,
                            reference_accepted, include_socket=not smoke)
    service_throughput = bench_service_throughput(
        SMOKE_SERVICE_SESSIONS if smoke else 12)
    static_vet = bench_static_vet(scenario)
    telemetry_overhead = bench_telemetry_overhead(
        SMOKE_JOIN_SIZE if smoke else BENCH_JOIN_SIZE)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "recorded_unix": time.time(),
        "smoke": smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": cpu_count,
        "workers": workers,
        "engine": engine,
        "fig9b": fig9b,
        "warm_vs_cold": warm_vs_cold,
        "distrib": distrib,
        "service_throughput": service_throughput,
        "static_vet": static_vet,
        "telemetry_overhead": telemetry_overhead,
        "smoke_reference": (
            _smoke_reference(workers, engine, fig9b,
                             warm_row=warm_vs_cold["fig9b_workload"],
                             telemetry_row=telemetry_overhead,
                             service_row=service_throughput["workers_1"])
            if smoke else _smoke_reference(workers)),
    }
    if output is not None:
        output = pathlib.Path(output)
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trace and workloads (seconds, CI-sized)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for the parallel modes")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON baseline")
    args = parser.parse_args(argv)
    payload = run_baseline(smoke=args.smoke, workers=args.workers,
                           output=args.output)
    print(f"wrote {args.output}")
    print(f"{'workload':>24} {'seconds':>10}")
    for label, entry in payload["engine"].items():
        if label.startswith("rule_scaling_"):
            print(f"{'engine.' + label:>24} {entry['insert_seconds']:>10.4f} "
                  f"(cold build {entry['cold_build_seconds']:.4f}, warm "
                  f"{entry['warm_build_seconds']:.4f}, "
                  f"{entry['build_speedup']:.1f}x, "
                  f"{entry['plan_cache_hits']} plan hits)")
            continue
        print(f"{'engine.' + label:>24} {entry['indexed_seconds']:>10.4f} "
              f"(naive {entry['naive_seconds']:.4f}, "
              f"{entry['speedup']:.1f}x)")
    for section in ("fig9b", "distrib", "service_throughput"):
        for label, entry in payload[section].items():
            if not isinstance(entry, dict) or "seconds" not in entry:
                continue
            suffix = (f" ({entry['workers']} workers)"
                      if "workers" in entry else "")
            print(f"{section + '.' + label:>24} "
                  f"{entry['seconds']:>10.3f}{suffix}")
    vet = payload["static_vet"]
    print(f"{'static_vet':>24} {vet['seconds_with_vet']:>10.3f} "
          f"(unvetted {vet['seconds_without_vet']:.3f}, "
          f"{vet['vetoed']}/{vet['candidates']} vetoed)")
    tele = payload["telemetry_overhead"]
    print(f"{'telemetry_overhead':>24} {tele['disabled_seconds']:>10.4f} "
          f"(traced {tele['traced_seconds']:.4f}, "
          f"{tele['overhead_factor']:.2f}x when on)")
    for label, entry in payload["warm_vs_cold"].items():
        print(f"{'warm_vs_cold.' + label:>24} "
              f"{entry['warm_setup_seconds']:>10.4f} "
              f"(cold {entry['cold_setup_seconds']:.4f}, "
              f"{entry['per_candidate_speedup']:.1f}x per-candidate setup)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
