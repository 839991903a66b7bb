"""The per-layer ledger: one probe per module under ``src/repro/``.

Each probe calls a layer's public functions from here, under a span, on
the workload's own config, and returns ``{metric name: value}``.  A
timing is the median of ``reps`` repetitions; the ablation matrix alone
runs each knob once, because it is the first thing to shed when the run
has to fit the contract's time cap.

Probes also enforce what must hold whatever the timing: an ablation or
transport whose accepted set differs from the default's, or a fault-free
fabric that retried or quarantined, is appended to ``failures``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

import golden
from measure import percentile
from workloads.base import STAGES, run_session, serial_config, staged_session
from workloads.cli_paper import QUERIES, paper_config
from workloads.service_q1 import CLIENTS, ServiceHarness

Metrics = Dict[str, float]


def _median_seconds(tracer, name: str, reps: int, call: Callable[[], object]):
    """Run ``call`` ``reps`` times under span ``name``; returns (median
    seconds, last result)."""
    result = None
    first = len(tracer.seconds(name))
    for _ in range(reps):
        with tracer.span(name):
            result = call()
    return statistics.median(tracer.seconds(name)[first:]), result


def _mean_us(call: Callable[[object], object], items) -> float:
    started = time.perf_counter()
    for item in items:
        call(item)
    return (time.perf_counter() - started) / max(1, len(items)) * 1e6


def _python_calls(call: Callable[[], object]) -> int:
    """Python-level function calls ``call()`` makes: a count that repeats
    exactly from run to run, which no timing on a shared host does."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def _accepted(report) -> List[str]:
    return [r.candidate.description for r in report.results if r.accepted]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def probe_cli(tracer, reps: int) -> Metrics:
    def python(code: str):
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    interpreter, _ = _median_seconds(tracer, "cli.interpreter", reps,
                                     lambda: python("pass"))
    with_import, _ = _median_seconds(tracer, "cli.import", reps,
                                     lambda: python("import repro.api"))
    return {"cli.interpreter_s": interpreter,
            "cli.import_s": with_import - interpreter}


# ---------------------------------------------------------------------------
# api (+ the ledger's own closure check)
# ---------------------------------------------------------------------------


def probe_api(tracer, own: Dict, reps: int) -> Metrics:
    """Stage rows from ``api.session`` spans; traced session ops of the
    same config already recorded some, the rest are run here."""
    from repro.ndlog.plan import plan_cache_stats
    sessions = len(tracer.seconds("api.session"))
    for index in range(max(1, reps - sessions)):
        before = plan_cache_stats()
        _, report = staged_session(tracer, own, op=1000 + index)
    after = plan_cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    session = statistics.median(tracer.seconds("api.session"))
    stages = {stage: statistics.median(tracer.seconds(f"api.{stage}"))
              for stage in STAGES}
    wire = report.to_wire()
    metrics = {f"api.{stage}_s": seconds for stage, seconds in stages.items()}
    metrics.update({
        "api.session_s": session,
        "ledger.unattributed_share": 1.0 - sum(stages.values()) / session,
        "ndlog.plan_cache_hit_ratio": hits / max(1, hits + misses),
        # Exactly what `repro repair --json` writes to stdout.
        "cli.json_bytes": len(json.dumps(wire, indent=2, sort_keys=True)) + 1,
        "api.python_calls": _python_calls(
            lambda: run_session(serial_config(own))),
    })
    for query in QUERIES:
        metrics[f"api.session_s.{query}"], _ = _median_seconds(
            tracer, f"api.session.{query}", reps,
            lambda: run_session(paper_config(query)))
    return metrics


# ---------------------------------------------------------------------------
# scenarios, ndlog
# ---------------------------------------------------------------------------


def probe_scenarios(tracer, config, reps: int):
    def build():
        scenario = config.scenario.build()
        scenario.trace()
        return scenario

    seconds, scenario = _median_seconds(tracer, "scenarios.build", reps, build)
    return scenario, {"scenarios.build_s": seconds,
                      "scenarios.trace_packets": len(scenario.trace())}


def probe_ndlog(tracer, scenario, reps: int) -> Metrics:
    from repro.ndlog import parse_program
    from repro.ndlog.plan import PLAN_CACHE
    parse, program = _median_seconds(
        tracer, "ndlog.parse", reps,
        lambda: parse_program(scenario.program_source, name=scenario.name))

    def cold_build():
        PLAN_CACHE.clear()
        return scenario.build_controller()

    cold, _ = _median_seconds(tracer, "ndlog.engine_build_cold", reps,
                              cold_build)
    warm, _ = _median_seconds(tracer, "ndlog.engine_build_warm", reps,
                              scenario.build_controller)
    # Distinct PacketIn tuples of the trace: a repeated tuple is a no-op.
    tuples = list(dict.fromkeys(
        scenario.packet_in_tuple(switch_id, packet)
        for switch_id, packet in scenario.trace()))
    # PacketIn tuples are events and are not stored, so removing them
    # exercises nothing; removing the static tuples their derivations
    # joined with is what takes the DRed path.
    static = list(scenario.static_tuples)
    inserts, removes = [], []
    for _ in range(reps):
        engine = scenario.build_controller().engine
        with tracer.span("ndlog.insert"):
            inserts.append(_mean_us(engine.insert, tuples))
        with tracer.span("ndlog.remove"):
            removes.append(_mean_us(engine.remove, static))
    return {"ndlog.parse_s": parse, "ndlog.rules": len(program.rules),
            "ndlog.engine_build_cold_s": cold,
            "ndlog.engine_build_warm_s": warm,
            "ndlog.insert_us": statistics.median(inserts),
            "ndlog.remove_us": statistics.median(removes)}


# ---------------------------------------------------------------------------
# meta, solver, repair, analysis
# ---------------------------------------------------------------------------


def probe_meta(tracer, config, scenario, reps: int):
    from repro.meta.explorer import MetaProvenanceExplorer
    from repro.repair import reset_candidate_ids
    history_s, history = _median_seconds(
        tracer, "meta.history_index", reps,
        lambda: scenario.history_index(trace_limit=config.trace_limit))

    def explore():
        reset_candidate_ids()
        return MetaProvenanceExplorer(
            scenario.program, history, cost_model=config.cost_model(),
            max_candidates=config.max_candidates,
        ).explore_missing(scenario.goal())

    explore_s, exploration = _median_seconds(tracer, "meta.explore", reps,
                                             explore)
    stats = exploration.stats
    attempts = stats.candidates_generated + stats.candidates_discarded_unsat
    return exploration.candidates, {
        "meta.history_index_s": history_s,
        "meta.explore_s": explore_s,
        "meta.candidates": len(exploration.candidates),
        "meta.work_items": stats.work_items_processed,
        "meta.discarded_unsat_ratio":
            stats.candidates_discarded_unsat / max(1, attempts),
        "solver.solve_s": stats.solver_seconds,
        "solver.calls": stats.solver_invocations,
    }


def probe_repair(tracer, scenario, candidates) -> Metrics:
    from repro.repair import (apply_candidate, candidate_from_wire,
                              candidate_to_wire)
    with tracer.span("repair.apply"):
        apply_us = _mean_us(
            lambda c: apply_candidate(scenario.program, c), candidates)
    with tracer.span("repair.wire_roundtrip"):
        roundtrip_us = _mean_us(
            lambda c: candidate_from_wire(
                json.loads(json.dumps(candidate_to_wire(c)))), candidates)
    wire_bytes = [len(json.dumps(candidate_to_wire(c))) for c in candidates]
    return {"repair.apply_us": apply_us,
            "repair.wire_roundtrip_us": roundtrip_us,
            "repair.wire_bytes": statistics.mean(wire_bytes)}


def probe_analysis(tracer, scenario, candidates, reps: int) -> Metrics:
    from repro.analysis.vet import CandidateVetter

    def vet_all():
        vetter = CandidateVetter(
            scenario.program,
            schemas={schema.name: schema for schema in scenario.schemas()},
            static_tuples=list(scenario.static_tuples),
            event_tables={scenario.mapping.packet_in_table},
            flow_table=scenario.mapping.flow_table)
        return [vetter.vet_candidate(c) for c in candidates]

    seconds, verdicts = _median_seconds(tracer, "analysis.vet", reps, vet_all)
    vetoed = sum(1 for verdict in verdicts if verdict.rejected)
    return {"analysis.vet_s": seconds, "analysis.vetoed": vetoed,
            "analysis.veto_ratio": vetoed / max(1, len(candidates))}


# ---------------------------------------------------------------------------
# sdn, controllers
# ---------------------------------------------------------------------------


def probe_sdn(tracer, config, scenario, reps: int) -> Metrics:
    from repro.sdn.network import NetworkSimulator
    baseline, stats = _median_seconds(
        tracer, "sdn.baseline_replay", reps,
        lambda: config.make_backtester(scenario).baseline())
    trace = scenario.trace()
    forwards = []
    for _ in range(reps):
        simulator = NetworkSimulator(
            scenario.build_topology(), scenario.build_controller(),
            require_packet_out=scenario.require_packet_out,
            record_ingress=False)
        simulator.run_trace(trace)       # installs every flow entry
        with tracer.span("sdn.forward") as span:
            simulator.run_trace(trace)   # table hits only, no PacketIn
        forwards.append(span.seconds)
    forward = statistics.median(forwards)
    return {"sdn.baseline_replay_s": baseline, "sdn.forward_s": forward,
            "sdn.packets_per_s": len(trace) / forward,
            "controllers.packet_in_s": baseline - forward,
            "controllers.packet_ins": stats.packet_in_count}


# ---------------------------------------------------------------------------
# backtest (+ ablation matrix)
# ---------------------------------------------------------------------------


def probe_backtest(tracer, config, scenario, candidates, reps: int,
                   failures: List[str]):
    from repro.backtest import EarlyAbortPolicy
    from repro.backtest.metrics import compare_traffic

    def evaluate(variant, name):
        backtester = variant.make_backtester(scenario)
        with tracer.span(name) as span:
            report = backtester.evaluate_all(candidates)
        return span.seconds, backtester, report

    runs = [evaluate(config, "backtest.evaluate_all") for _ in range(reps)]
    default_s = statistics.median(seconds for seconds, _, _ in runs)
    _, backtester, report = runs[-1]
    accepted = _accepted(report)
    with tracer.span("backtest.ks"):
        ks_us = _mean_us(lambda r: compare_traffic(report.baseline, r.stats),
                         report.results)
    metrics = {
        "backtest.evaluate_all_s": default_s,
        "backtest.per_candidate_ms": default_s / max(1, len(candidates)) * 1e3,
        "backtest.packets_replayed_per_s":
            report.packet_count * len(candidates) / default_s,
        "backtest.ks_us": ks_us,
        "backtest.warm_hits": backtester.warm_hits,
        "backtest.warm_fallbacks": backtester.warm_fallbacks,
    }
    # One knob flipped alone per row, same candidates.
    ablations = {
        "cold_engine": {"warm_engine": False},
        "batched": {"replay_batch_size": 32},
        "multiquery": {"multiquery": True},
        "no_vet": {"static_vet": False},
        "abort": {"abort": EarlyAbortPolicy()},
        "fork2": {"workers": 2},
    }
    for name, knobs in ablations.items():
        seconds, _, ablated = evaluate(config.with_updates(**knobs),
                                       f"backtest.{name}")
        metrics[f"backtest.{name}_s"] = seconds
        if _accepted(ablated) != accepted:
            failures.append(f"backtest.{name}: accepted set differs from "
                            f"the default configuration's")
        if name == "multiquery":
            metrics["backtest.sharing_ratio"] = ablated.sharing_ratio()
        if name == "abort":
            metrics["backtest.aborted"] = sum(
                1 for r in ablated.results
                if any(str(note).startswith("aborted") for note in r.notes))
    return default_s, accepted, metrics


# ---------------------------------------------------------------------------
# distrib
# ---------------------------------------------------------------------------


def probe_distrib(tracer, config, scenario, candidates, serial_s: float,
                  accepted: List[str], reps: int,
                  failures: List[str]) -> Metrics:
    """``config``/``scenario``/``candidates`` are the wire-safe ones;
    ``serial_s`` and ``accepted`` their serial ``evaluate_all``'s."""
    from repro.distrib import Scheduler, build_job_wire
    metrics: Metrics = {}
    retries = quarantined = 0
    for transport in ("spawn", "socket", "inprocess"):
        started = time.perf_counter()
        scheduler = Scheduler(transport, workers=2)
        try:
            # A one-candidate job, unvetted so that it reaches a worker.
            config.with_updates(static_vet=False).make_backtester(
                scenario).evaluate_all(candidates[:1], scheduler=scheduler)
            if transport == "spawn":
                tracer.record("distrib.fleet_start", started,
                              time.perf_counter())
                metrics["distrib.fleet_start_s"] = \
                    time.perf_counter() - started
            seconds, report = _median_seconds(
                tracer, f"distrib.{transport}_backtest", reps,
                lambda: config.make_backtester(scenario).evaluate_all(
                    candidates, scheduler=scheduler))
            stats = scheduler.transport.last_fault_stats
            retries += stats.total_retries
            quarantined += stats.quarantined
        finally:
            scheduler.close()
        metrics[f"distrib.{transport}_backtest_s"] = seconds
        if _accepted(report) != accepted:
            failures.append(f"distrib.{transport}: accepted set differs "
                            f"from serial evaluation's")
    if retries or quarantined:
        failures.append(f"distrib: fault-free fabric retried {retries} and "
                        f"quarantined {quarantined} items")
    backtester = config.make_backtester(scenario)
    started = time.perf_counter()
    job_json = json.dumps(build_job_wire(backtester, candidates))
    metrics.update({
        "distrib.job_encode_us": (time.perf_counter() - started) * 1e6,
        "distrib.job_wire_bytes": len(job_json),
        "distrib.overhead_ratio":
            metrics["distrib.spawn_backtest_s"] / serial_s,
        "distrib.retries": retries,
        "distrib.quarantined": quarantined,
    })
    return metrics


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def probe_service(tracer, config_wire: Dict, serial_session_s: float,
                  sessions: int, expected_wire: Dict,
                  failures: List[str]) -> Metrics:
    """``sessions`` closed-loop sessions from ``CLIENTS`` client threads
    against a fresh daemon; every report must equal ``expected_wire``,
    the serial in-process report of the same config."""
    from repro.api import RepairConfig
    harness = ServiceHarness()
    harness.start()
    try:
        harness.run_clients(config_wire, 0.0, 1)      # warm both workers
        results = harness.run_clients(config_wire, 0.0,
                                      -(-sessions // CLIENTS))
    finally:
        harness.stop()
    failures.extend(f"service: {r.error}" for r in results if r.error)
    samples = [r for r in results if r.wire is not None]
    if not samples:
        raise RuntimeError("service probe completed no session")
    want = golden.digest(expected_wire)
    mismatched = sum(1 for s in samples
                     if golden.digest(s.wire["report"]) != want)
    if mismatched:
        failures.append(f"service: {mismatched} reports differ from the "
                        f"serial in-process report of the same config")
    for sample in samples:
        tracer.record("service.submit", sample.start, sample.submitted)
        tracer.record("service.session", sample.start, sample.end)
    wires = [s.wire for s in samples]
    totals = [s.end - s.start for s in samples]
    runs = [w["finished_unix"] - w["started_unix"] for w in wires]
    config = RepairConfig.from_wire(config_wire)
    return {
        "service.daemon_start_s": harness.start_seconds,
        "service.sessions": len(samples),
        "service.submit_p50_s":
            statistics.median(s.submitted - s.start for s in samples),
        "service.queue_wait_p50_s": statistics.median(
            w["started_unix"] - w["submitted_unix"] for w in wires),
        "service.run_p50_s": statistics.median(runs),
        "service.dispatch_overhead_s": statistics.median(
            run - sum(w["stage_seconds"].values())
            for run, w in zip(runs, wires)),
        "service.overhead_s": statistics.median(totals) - serial_session_s,
        "service.session_p95_s": percentile(totals, 95.0),
        "service.polls_per_session":
            statistics.mean(s.polls for s in samples),
        "service.config_wire_us": _mean_us(
            lambda _: RepairConfig.from_json(config.to_json()), range(50)),
        "service.report_wire_bytes": statistics.mean(
            len(json.dumps(w["report"], sort_keys=True)) for w in wires),
        "service.attempts_gt1": sum(1 for w in wires if w["attempts"] > 0),
    }


# ---------------------------------------------------------------------------
# obs
# ---------------------------------------------------------------------------


def probe_obs(tracer, own: Dict, session_s: float, reps: int) -> Metrics:
    traced = dict(own, telemetry={"enabled": True, "slice_packets": None,
                                  "profile": False,
                                  "trace_fixpoints": False})
    seconds, (session, _) = _median_seconds(tracer, "obs.traced_session",
                                            reps, lambda: run_session(traced))
    return {"obs.traced_ratio": seconds / session_s,
            "obs.spans": len(session.telemetry.spans())}


# ---------------------------------------------------------------------------
# The whole ledger for one workload
# ---------------------------------------------------------------------------


def run_probes(tracer, own: Dict, wire_safe: Dict, reps: int,
               service_sessions: int, op_reports: List[Dict],
               failures: List[str]) -> Metrics:
    from repro.api import RepairConfig
    metrics: Metrics = {}
    metrics.update(probe_cli(tracer, reps))
    metrics.update(probe_api(tracer, own, reps))
    session_s = metrics["api.session_s"]

    config = RepairConfig.from_wire(serial_config(own))
    scenario, rows = probe_scenarios(tracer, config, reps)
    metrics.update(rows)
    metrics.update(probe_ndlog(tracer, scenario, reps))
    candidates, rows = probe_meta(tracer, config, scenario, reps)
    metrics.update(rows)
    metrics.update(probe_repair(tracer, scenario, candidates))
    metrics.update(probe_analysis(tracer, scenario, candidates, reps))
    metrics.update(probe_sdn(tracer, config, scenario, reps))
    evaluate_all_s, accepted, rows = probe_backtest(
        tracer, config, scenario, candidates, reps, failures)
    metrics.update(rows)

    # Fabric and service run what a fresh worker can rebuild; when that is
    # not the workload's own config, their serial bases are taken afresh.
    own_is_wire_safe = wire_safe == serial_config(own)
    if own_is_wire_safe:
        wire_config, wire_scenario, wire_candidates = (config, scenario,
                                                       candidates)
    else:
        wire_config = RepairConfig.from_wire(wire_safe)
        wire_scenario = wire_config.scenario.build()
        wire_candidates, _ = probe_meta(tracer, wire_config, wire_scenario, 1)
        evaluate_all_s, report = _median_seconds(
            tracer, "backtest.evaluate_all.wire_safe", reps,
            lambda: wire_config.make_backtester(wire_scenario)
            .evaluate_all(wire_candidates))
        accepted = _accepted(report)
    metrics.update(probe_distrib(tracer, wire_config, wire_scenario,
                                 wire_candidates, evaluate_all_s, accepted,
                                 reps, failures))
    wire_session_s, (_, wire_report) = _median_seconds(
        tracer, "api.session.wire_safe", reps,
        lambda: run_session(wire_safe))
    if own_is_wire_safe:
        want = golden.digest(wire_report.to_wire())
        differing = sum(1 for wire in op_reports
                        if golden.digest(wire) != want)
        if differing:
            failures.append(f"{differing} op reports differ from the serial "
                            f"in-process report of the same config")
    metrics.update(probe_service(tracer, wire_safe, wire_session_s,
                                 service_sessions, wire_report.to_wire(),
                                 failures))
    metrics.update(probe_obs(tracer, own, session_s, reps))
    return metrics
