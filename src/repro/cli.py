"""``python -m repro`` — the command-line face of the repair pipeline.

Subcommands (all built on :mod:`repro.api`):

* ``repro repair Q1`` — run the full Diagnose → Generate → Backtest →
  Rank pipeline and print the surviving repair suggestions.
* ``repro backtest Q1`` — same pipeline, but print the full candidate
  verdict table (every backtested candidate with its KS statistic).
* ``repro lint Q1`` (or a ``.ndlog`` file) — statically analyse a
  program; ``--candidates FILE`` also vets repair candidates against it.
* ``repro worker --connect HOST:PORT`` — join a coordinator's worker
  pool as a remote worker (alias of the ``repro-worker`` entry point;
  the pool's token comes from ``REPRO_WORKER_TOKEN``).
* ``repro serve`` — the multi-tenant repair service (coordinator daemon,
  worker fleet and HTTP front door); ``repro submit Q1`` sends it a run
  and ``repro status [SESSION]`` inspects its sessions.
* ``repro scenarios list`` — the registered scenario catalogue.
* ``repro trace Q1 --out trace.json`` — run the pipeline with telemetry
  on and write a Chrome ``trace_event`` file (Perfetto-loadable).
* ``repro stats Q1`` — run the pipeline and print the consolidated
  metrics registry as Prometheus-style text.
* ``repro events summarize run.jsonl`` — per-stage and per-candidate
  timing plus veto/abort tables from a ``--events`` JSONL log.

Every run-shaped command accepts ``--config FILE`` (a JSON
:class:`~repro.api.RepairConfig`) plus per-knob overrides, streams live
progress from the session event bus to stderr (``--quiet`` silences it),
writes machine-readable event logs with ``--events FILE``, and with
``--json`` prints the final report as JSON on stdout.  Telemetry flags
(``--trace FILE``, ``--stats FILE``, ``--profile``, ``--trace-slices``,
``--trace-fixpoints``) switch the observability layer on for any
run-shaped command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace as _dc_replace
from typing import List, Optional

from .api import (EventBus, JsonlEventWriter, RepairConfig, RepairSession,
                  SessionEvent, TelemetryConfig)
from .backtest.abort import EarlyAbortPolicy
from .backtest.ranking import format_table
from .scenarios import SCENARIO_BUILDERS, build_scenario
from .wire import WireError


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Options mirroring RepairConfig knobs (None = keep config default)."""
    run = parser.add_argument_group("pipeline configuration")
    run.add_argument("--config", metavar="FILE",
                     help="JSON RepairConfig to start from "
                          "(CLI flags override it)")
    run.add_argument("--max-candidates", type=int, metavar="N",
                     help="candidate budget for the explorer")
    multiquery = run.add_mutually_exclusive_group()
    multiquery.add_argument("--multiquery", action="store_true", default=None,
                            help="use the multi-query (shared-trunk) "
                                 "backtester")
    multiquery.add_argument("--no-multiquery", dest="multiquery",
                            action="store_false",
                            help="force the sequential backtester")
    run.add_argument("--trace-limit", type=int, metavar="N",
                     help="replay only the first N trace packets")
    run.add_argument("--ks-threshold", type=float, metavar="X",
                     help="KS acceptance threshold (default: scenario's)")
    run.add_argument("--max-packet-in-growth", type=float, metavar="X",
                     help="reject repairs growing PacketIn load beyond X×")
    run.add_argument("--batch-size", type=int, metavar="N", dest="batch_size",
                     help="replay the trace in bursts of N packets")
    sched = parser.add_argument_group("scheduling")
    sched.add_argument("--workers", type=int, metavar="N",
                       help="worker count for candidate evaluation")
    sched.add_argument("--transport", choices=["inprocess", "spawn", "socket"],
                       help="evaluate candidates through the distributed "
                            "fabric instead of the local path")
    sched.add_argument("--port", type=int,
                       help="listen port for --transport socket")
    sched.add_argument("--fault-plan", metavar="FILE", dest="fault_plan",
                       help="JSON FaultPlan injected into the transport "
                            "(deterministic chaos reproduction)")
    sched.add_argument("--abort-check-every", type=int, metavar="N",
                       help="enable early abort, checking every N packets")
    sched.add_argument("--abort-ks-slack", type=float, metavar="X",
                       help="slack multiplier for the heuristic KS abort")
    out = parser.add_argument_group("output")
    out.add_argument("--json", action="store_true",
                     help="print the final report as JSON on stdout")
    out.add_argument("--events", metavar="FILE",
                     help="append the session event stream to FILE as JSONL")
    out.add_argument("--quiet", action="store_true",
                     help="no live progress on stderr")
    obs = parser.add_argument_group(
        "telemetry", "any of these switches the observability layer on")
    obs.add_argument("--trace", metavar="FILE",
                     help="write a Chrome trace_event file of the run "
                          "(load in Perfetto or chrome://tracing)")
    obs.add_argument("--stats", metavar="FILE",
                     help="write Prometheus-style metrics text "
                          "('-' for stdout)")
    obs.add_argument("--profile", action="store_true", default=None,
                     help="capture a cProfile per pipeline stage "
                          "(top tables on stderr)")
    obs.add_argument("--trace-slices", type=int, metavar="N",
                     help="emit a replay.slice span every N replayed packets")
    obs.add_argument("--trace-fixpoints", action="store_true", default=None,
                     help="span every engine fixpoint (verbose; deep dives)")


def _config_from_args(args) -> RepairConfig:
    """The run's config (:func:`_fold_args`).  One the session cannot run —
    an unreadable or malformed file, a knob out of range, an unregistered
    scenario — is one line on stderr and exit status 2."""
    try:
        config = _fold_args(args)
    except (OSError, ValueError) as exc:     # WireError is a ValueError
        problem = str(exc)
    else:
        if config.scenario.name in SCENARIO_BUILDERS:
            return config
        problem = (f"unknown scenario {config.scenario.name!r}; registered: "
                   f"{', '.join(sorted(SCENARIO_BUILDERS))}")
    print(f"repro {args.command}: {problem}", file=sys.stderr)
    raise SystemExit(2)


def _fold_args(args) -> RepairConfig:
    """Start from --config (or defaults) and fold in the CLI overrides.

    The scenario may come from either side: an explicit name on the
    command line wins, otherwise the --config file's ``scenario`` drives
    the run.
    """
    config = (RepairConfig.from_file(args.config) if args.config
              else RepairConfig())
    updates = {}
    if getattr(args, "scenario", None):
        from .scenarios.spec import ScenarioSpec
        updates["scenario"] = ScenarioSpec.create(args.scenario)
    elif config.scenario is None:
        print("repro: no scenario specified (name one on the command line "
              "or in the --config file)", file=sys.stderr)
        raise SystemExit(2)
    if args.max_candidates is not None:
        updates["max_candidates"] = args.max_candidates
    if args.multiquery is not None:
        updates["multiquery"] = args.multiquery
    if args.trace_limit is not None:
        updates["trace_limit"] = args.trace_limit
    if args.ks_threshold is not None:
        updates["ks_threshold"] = args.ks_threshold
    if args.max_packet_in_growth is not None:
        updates["max_packet_in_growth"] = args.max_packet_in_growth
    if args.batch_size is not None:
        updates["replay_batch_size"] = args.batch_size
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.transport is not None:
        updates["transport"] = args.transport
    transport_options = dict(config.transport_options)
    if args.port is not None:
        transport_options["port"] = args.port
    if getattr(args, "fault_plan", None):
        from .distrib.faults import FaultPlan
        # Stored as its wire dict so the folded config stays JSON-able;
        # the transport coerces it back into a FaultPlan.
        transport_options["fault_plan"] = \
            FaultPlan.from_file(args.fault_plan).to_wire()
    if transport_options != config.transport_options:
        updates["transport_options"] = transport_options
    if args.abort_check_every is not None or args.abort_ks_slack is not None:
        base = config.abort or EarlyAbortPolicy()
        updates["abort"] = EarlyAbortPolicy(
            check_every=(args.abort_check_every
                         if args.abort_check_every is not None
                         else base.check_every),
            max_packet_in_growth=base.max_packet_in_growth,
            ks_slack=(args.abort_ks_slack if args.abort_ks_slack is not None
                      else base.ks_slack),
            min_fraction=base.min_fraction)
    telemetry_updates = {}
    if getattr(args, "profile", None):
        telemetry_updates["profile"] = True
    if getattr(args, "trace_slices", None) is not None:
        telemetry_updates["slice_packets"] = args.trace_slices
    if getattr(args, "trace_fixpoints", None):
        telemetry_updates["trace_fixpoints"] = True
    if (telemetry_updates or getattr(args, "trace", None)
            or getattr(args, "stats", None)
            or getattr(args, "force_telemetry", False)):
        base_telemetry = config.telemetry or TelemetryConfig()
        updates["telemetry"] = _dc_replace(base_telemetry, enabled=True,
                                           **telemetry_updates)
    return config.with_updates(**updates) if updates else config


class _LiveRenderer:
    """Event-bus subscriber printing one progress line per event."""

    def __init__(self, stream):
        self.stream = stream

    def __call__(self, event: SessionEvent) -> None:
        line = self._format(event)
        if line is not None:
            print(line, file=self.stream, flush=True)

    def _format(self, event: SessionEvent) -> Optional[str]:
        kind = event.kind
        if kind == "session_started":
            return (f"== {event.scenario}: {event.symptom}\n"
                    f"   stages: {' -> '.join(event.stages)}")
        if kind == "stage_started":
            return f"-- {event.stage} ..."
        if kind == "stage_finished":
            return f"-- {event.stage} done in {event.elapsed_seconds:.2f}s"
        if kind == "candidate_found":
            return (f"   candidate {event.index}/{event.total} "
                    f"[cost {event.cost:.1f}] {event.description}")
        if kind == "backtest_progress":
            verdict = "PASS" if event.accepted else "FAIL"
            return (f"   backtest {event.done}/{event.total} {verdict} "
                    f"KS={event.ks_statistic:.4f} {event.description}")
        if kind == "candidate_aborted":
            return f"   aborted: {event.description} ({event.note})"
        if kind == "candidate_vetoed":
            return f"   vetoed ({event.reason}): {event.description}"
        if kind == "candidate_quarantined":
            return (f"   quarantined ({event.reason}, "
                    f"{event.attempts} attempts): {event.description}")
        if kind == "fabric_fault_stats":
            degraded = ", degraded to serial" if event.degraded else ""
            return (f"   fabric recovery: {event.worker_restarts} worker "
                    f"restart(s), {event.job_retries} retry(ies)"
                    f"{' [' + event.retry_reasons + ']' if event.retry_reasons else ''}, "
                    f"{event.quarantined} quarantined, "
                    f"{event.frame_errors} frame error(s){degraded}")
        if kind == "warm_engine_stats":
            return (f"   static analysis: {event.vetoed} vetoed; plan cache: "
                    f"{event.plan_cache_misses} compiled, "
                    f"{event.plan_cache_hits} reused")
        if kind == "session_finished":
            return (f"== {event.scenario}: {event.generated} candidates, "
                    f"{event.surviving} survived "
                    f"({event.elapsed_seconds:.2f}s)")
        return None


def _emit_telemetry(session, args) -> None:
    """Write the run's trace/metrics/profile artifacts the flags asked for."""
    telemetry = session.telemetry
    if telemetry is None:
        return
    trace_path = getattr(args, "trace", None)
    if trace_path:
        telemetry.write_chrome(trace_path)
        if not args.quiet:
            print(f"-- trace {telemetry.trace_id}: "
                  f"{len(telemetry.tracer.finished)} spans -> {trace_path}",
                  file=sys.stderr)
    stats_path = getattr(args, "stats", None)
    if stats_path:
        text = telemetry.prometheus()
        if stats_path == "-":
            sys.stdout.write(text)
        else:
            with open(stats_path, "w", encoding="utf-8") as handle:
                handle.write(text)
    if getattr(args, "profile", None) and telemetry.profiles:
        for stage, table in telemetry.profiles.items():
            print(f"-- profile: {stage}\n{table}", file=sys.stderr)


def _run_session(args) -> "tuple":
    """Build the configured session from CLI args and run it."""
    config = _config_from_args(args)
    events = EventBus()
    log_handle = None
    if args.events:
        log_handle = open(args.events, "a", encoding="utf-8")
        events.subscribe(JsonlEventWriter(log_handle))
    if not args.quiet:
        events.subscribe(_LiveRenderer(sys.stderr))
    session = RepairSession(config, events=events)
    try:
        report = session.run()
    finally:
        if log_handle is not None:
            log_handle.close()
    _emit_telemetry(session, args)
    return session, report


def _cmd_repair(args) -> int:
    session, report = _run_session(args)
    suggestions = report.suggestions()
    if args.json:
        print(json.dumps(report.to_wire(), indent=2, sort_keys=True))
        return 0 if suggestions else 2
    print(report.summary())
    if not suggestions:
        print("no repair survived backtesting", file=sys.stderr)
        return 2
    best = suggestions[0].candidate
    print(f"\nOperator's pick: {best.description}")
    reference = getattr(session.scenario, "reference_repair", None)
    if reference:
        print(f"Reference repair from the paper: {reference}")
    return 0


def _cmd_backtest(args) -> int:
    _, report = _run_session(args)
    if args.json:
        print(json.dumps(report.to_wire(), indent=2, sort_keys=True))
        return 0
    print(format_table(report.backtest.results))
    generated, surviving = report.counts()
    print(f"\n{generated} candidates backtested over "
          f"{report.backtest.packet_count} packets, {surviving} accepted")
    return 0


def _cmd_lint(args) -> int:
    """Statically analyse a program (and optionally vet candidates).

    The target is either a registered scenario name — linted with its
    schemas and static base data — or a path to an ``.ndlog`` source file.
    Exit status: 0 when the program lints clean, 1 when there are
    findings, 2 for unreadable/unparseable input.
    """
    from .analysis import CandidateVetter, lint_program, lint_scenario
    from .ndlog.errors import ParseError
    from .ndlog.parser import parse_program

    target = args.target
    scenario = None
    if target.upper() in SCENARIO_BUILDERS:
        scenario = build_scenario(target.upper())
        source_name = target.upper()
        findings = lint_scenario(scenario)
    else:
        try:
            with open(target, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            print(f"repro lint: cannot read {target}: {exc}", file=sys.stderr)
            return 2
        source_name = target
        try:
            program = parse_program(source, name=target)
        except ParseError as exc:
            print(f"{target}:{exc.line}:{exc.column}: error: (parse) "
                  f"{exc.message}", file=sys.stderr)
            return 2
        findings = lint_program(program)

    vet_rows = []
    if args.candidates:
        if scenario is None:
            print("repro lint: --candidates requires a scenario target "
                  "(schemas and base data)", file=sys.stderr)
            return 2
        try:
            candidates = _read_candidates(args.candidates)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"repro lint: {args.candidates}: {exc}", file=sys.stderr)
            return 2
        mapping = scenario.mapping
        vetter = CandidateVetter(
            scenario.program,
            schemas={s.name: s for s in scenario.schemas()},
            static_tuples=scenario.static_tuples,
            event_tables={mapping.packet_in_table},
            flow_table=mapping.flow_table)
        vet_rows = [(candidate, vetter.vet_candidate(candidate))
                    for candidate in candidates]

    if args.json:
        print(json.dumps({
            "target": source_name,
            "clean": not findings,
            "findings": [finding.as_dict() for finding in findings],
            "candidates": [
                {"description": candidate.description,
                 "candidate_id": candidate.candidate_id,
                 "verdict": verdict.verdict,
                 "reason": verdict.reason,
                 "findings": [f.as_dict() for f in verdict.findings]}
                for candidate, verdict in vet_rows],
        }, indent=2, sort_keys=True))
        return 1 if findings else 0

    for finding in findings:
        print(finding.render(source_name))
    for candidate, verdict in vet_rows:
        label = candidate.description or candidate.candidate_id
        print(f"{source_name}: candidate {label}: {verdict.describe()}")
    if findings:
        errors = sum(1 for f in findings if f.severity == "error")
        print(f"{source_name}: {len(findings)} finding(s), "
              f"{errors} error(s)", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"{source_name}: clean", file=sys.stderr)
    return 0


def _decode_all(decode, wires, label):
    """``decode`` of each ``(position, wire)``; a ``WireError`` names the
    first position that does not decode."""
    values = []
    for position, wire in wires:
        try:
            values.append(decode(wire))
        except WireError as exc:
            raise WireError(f"{label} {position}: {exc}") from None
    return values


def _read_candidates(path):
    """The candidates of a file holding a JSON list of candidate wires."""
    from .repair.candidates import RepairCandidate
    with open(path, "r", encoding="utf-8") as handle:
        wires = json.load(handle)
    if not isinstance(wires, list):
        raise WireError(f"expected a list of candidate wires, not "
                        f"{type(wires).__name__}")
    return _decode_all(RepairCandidate.from_wire, enumerate(wires),
                       "candidate")


def _cmd_trace(args) -> int:
    """Run the pipeline with tracing on and write a Chrome trace file."""
    args.trace = args.trace or args.out
    session, _ = _run_session(args)
    telemetry = session.telemetry
    from .obs import validate_chrome_trace
    info = validate_chrome_trace(telemetry.chrome_trace())
    if args.json:
        print(json.dumps({
            "trace_id": telemetry.trace_id,
            "file": args.trace,
            "spans": info["span_count"],
            "pids": sorted(info["pids"]),
            "names": sorted(info["names"]),
        }, indent=2, sort_keys=True))
        return 0
    print(f"trace {telemetry.trace_id}: {info['span_count']} spans over "
          f"{len(info['pids'])} process(es) -> {args.trace}")
    by_name = Counter()
    for span in telemetry.tracer.finished:
        by_name[span["name"]] += 1
    for name, count in sorted(by_name.items()):
        print(f"  {name:20s} {count:5d}")
    return 0


def _cmd_stats(args) -> int:
    """Run the pipeline with metrics on and print the registry."""
    args.force_telemetry = True
    if not args.stats and not args.json:
        args.stats = "-"
    session, _ = _run_session(args)
    if args.json:
        print(json.dumps(session.telemetry.metrics.snapshot(),
                         indent=2, sort_keys=True))
    return 0


def _read_event_log(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(number, line) for number, line in enumerate(handle, 1)
                 if line.strip()]
    return _decode_all(SessionEvent.from_json, lines, "line")


def _summarize_sessions(events):
    """Group a (possibly multi-run) event log into per-session summaries."""
    sessions = []
    current = None
    for event in events:
        if event.kind == "session_started" or current is None:
            current = {"scenario": getattr(event, "scenario", ""),
                       "symptom": getattr(event, "symptom", ""),
                       "trace_id": event.trace_id,
                       "stages": [], "candidates": [], "vetoes": [],
                       "aborts": [], "finished": None}
            sessions.append(current)
        if event.trace_id and not current["trace_id"]:
            current["trace_id"] = event.trace_id
        kind = event.kind
        if kind == "stage_finished":
            current["stages"].append((event.stage, event.elapsed_seconds))
        elif kind == "backtest_progress":
            current["candidates"].append(event)
        elif kind == "candidate_vetoed":
            current["vetoes"].append(event)
        elif kind == "candidate_aborted":
            current["aborts"].append(event)
        elif kind == "session_finished":
            current["finished"] = event
    return sessions


def _cmd_events_summarize(args) -> int:
    """Digest a ``--events`` JSONL log into timing and verdict tables."""
    try:
        events = _read_event_log(args.file)
    except OSError as exc:
        print(f"repro events: cannot read {args.file}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro events: malformed event log {args.file}: {exc}",
              file=sys.stderr)
        return 2
    if not events:
        print(f"repro events: {args.file} holds no events", file=sys.stderr)
        return 2
    sessions = _summarize_sessions(events)
    if args.json:
        print(json.dumps([{
            "scenario": s["scenario"],
            "trace_id": s["trace_id"],
            "stages": [{"stage": name, "seconds": secs}
                       for name, secs in s["stages"]],
            "candidates": [{"description": c.description,
                            "accepted": c.accepted,
                            "ks_statistic": c.ks_statistic,
                            "elapsed_seconds": c.elapsed_seconds,
                            "aborted": c.aborted} for c in s["candidates"]],
            "vetoes": [{"description": v.description, "reason": v.reason}
                       for v in s["vetoes"]],
            "aborts": [{"description": a.description, "note": a.note}
                       for a in s["aborts"]],
        } for s in sessions], indent=2, sort_keys=True))
        return 0
    for number, summary in enumerate(sessions, 1):
        title = summary["scenario"] or "(unknown scenario)"
        trace = (f" [trace {summary['trace_id']}]"
                 if summary["trace_id"] else "")
        print(f"== session {number}: {title}{trace}")
        total = sum(secs for _, secs in summary["stages"]) or 0.0
        if summary["stages"]:
            print("   stage timing:")
            for name, secs in summary["stages"]:
                share = (100.0 * secs / total) if total else 0.0
                print(f"     {name:10s} {secs:8.3f}s  {share:5.1f}%")
            print(f"     {'total':10s} {total:8.3f}s")
        candidates = summary["candidates"]
        if candidates:
            accepted = sum(1 for c in candidates if c.accepted)
            print(f"   candidates: {len(candidates)} backtested, "
                  f"{accepted} accepted, {len(summary['vetoes'])} vetoed, "
                  f"{len(summary['aborts'])} aborted")
            slowest = sorted(candidates, key=lambda c: -c.elapsed_seconds)
            print("   slowest candidates:")
            for candidate in slowest[:args.top]:
                verdict = "PASS" if candidate.accepted else "FAIL"
                print(f"     {candidate.elapsed_seconds:8.3f}s {verdict} "
                      f"KS={candidate.ks_statistic:.4f} "
                      f"{candidate.description}")
        if summary["vetoes"]:
            print("   vetoes by reason:")
            reasons = Counter(v.reason for v in summary["vetoes"])
            for reason, count in reasons.most_common():
                print(f"     {count:4d}  {reason}")
        if summary["aborts"]:
            print("   aborted candidates:")
            for abort in summary["aborts"]:
                print(f"     {abort.description} ({abort.note})")
    return 0


def _cmd_worker(args) -> int:
    from .distrib.worker import main as worker_main
    return worker_main(["--connect", args.connect])


class _WireJsonlLog:
    """JSONL sink for already-wire-format event dicts (serve --events)."""

    def __init__(self, stream):
        self.stream = stream

    def __call__(self, wire) -> None:
        self.stream.write(json.dumps(wire, sort_keys=True, default=str) + "\n")
        self.stream.flush()

    def sync(self) -> None:
        self.stream.flush()
        try:
            os.fsync(self.stream.fileno())
        except (AttributeError, OSError, ValueError):
            pass


def _cmd_serve(args) -> int:
    """Run the multi-tenant repair service (daemon + HTTP front door)."""
    import signal
    import threading

    from .distrib.pool import TOKEN_ENV
    from .service import RepairServiceDaemon, ServiceHTTPServer

    if args.no_spawn_workers and not os.environ.get(TOKEN_ENV):
        # Without it the pool draws a random token no remote worker knows.
        print(f"repro serve: --no-spawn-workers needs {TOKEN_ENV} set, to "
              f"the same secret here and for every remote repro-worker",
              file=sys.stderr)
        return 2
    plan = None
    if args.fault_plan:
        from .distrib.faults import FaultPlan
        plan = FaultPlan.from_file(args.fault_plan)
    log_handle = on_event = None
    if args.events:
        log_handle = open(args.events, "a", encoding="utf-8")
        on_event = _WireJsonlLog(log_handle)
    daemon = RepairServiceDaemon(workers=args.workers,
                                 host=args.daemon_host,
                                 port=args.daemon_port,
                                 spawn_workers=not args.no_spawn_workers,
                                 fault_plan=plan,
                                 on_event=on_event)
    # Both ports are bound before a worker is launched (the pool binds its
    # own before it spawns), so a busy one leaves no process behind.
    server = None
    try:
        server = ServiceHTTPServer((args.host, args.port), daemon,
                                   quiet=args.quiet)
        daemon.start()
    except OSError as error:
        host, port = ((args.host, args.port) if server is None
                      else (args.daemon_host, args.daemon_port))
        if server is not None:
            daemon.stop(grace=0)
            server.server_close()
        if log_handle is not None:
            log_handle.close()
        print(f"repro serve: cannot listen on {host}:{port}: "
              f"{error.strerror or error}", file=sys.stderr)
        return 2
    stop = threading.Event()

    def _request_stop(signum, frame):
        stop.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_stop)
        except (ValueError, OSError):
            pass
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    worker_host, worker_port = daemon.address
    print(f"repro serve: HTTP on {server.url} "
          f"(workers connect to {worker_host}:{worker_port})", flush=True)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    except KeyboardInterrupt:
        pass
    print("repro serve: draining...", flush=True)
    server.stop(grace=args.grace)
    if log_handle is not None:
        log_handle.close()
    print("repro serve: stopped", flush=True)
    return 0


def _format_service_session(wire) -> str:
    """Human-readable view of a GET /sessions/<id> wire."""
    lines = [f"session {wire.get('id')} [{wire.get('tenant')}] "
             f"{wire.get('scenario')}: {wire.get('state')}"
             + (f" ({wire.get('error')})" if wire.get("error") else "")]
    report = wire.get("report")
    if report:
        lines.append(f"  generated {report.get('generated')} candidates, "
                     f"{report.get('surviving')} survived backtesting")
        for description in report.get("suggestions", []):
            lines.append(f"    suggested: {description}")
    return "\n".join(lines)


def _cmd_submit(args) -> int:
    """Submit a repair run to a ``repro serve`` front door over HTTP."""
    from .service.client import ClientError, ServiceClient

    config = _config_from_args(args)
    client = ServiceClient(args.url)
    try:
        ack = client.submit(config, tenant=args.tenant)
        session_id = ack["id"]
        if not args.quiet:
            print(f"submitted {session_id} (tenant {ack['tenant']}) "
                  f"to {args.url}", file=sys.stderr)
        if args.no_wait:
            print(json.dumps(ack, indent=2, sort_keys=True) if args.json
                  else session_id)
            return 0
        wire = client.wait(session_id, timeout=args.timeout)
    except ClientError as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2
    except (OSError, TimeoutError) as exc:
        print(f"repro submit: {args.url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(wire, indent=2, sort_keys=True))
    else:
        print(_format_service_session(wire))
    if wire.get("state") == "failed":
        return 1
    report = wire.get("report") or {}
    return 0 if report.get("suggestions") else 2


def _cmd_status(args) -> int:
    """Inspect a running service: all sessions, or one in detail."""
    from .service.client import ClientError, ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.session:
            if args.events:
                for wire in client.events(args.session):
                    print(json.dumps(wire, sort_keys=True, default=str))
                return 0
            wire = client.session(args.session)
            print(json.dumps(wire, indent=2, sort_keys=True) if args.json
                  else _format_service_session(wire))
            return 0
        sessions = client.sessions()
    except ClientError as exc:
        print(f"repro status: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro status: {args.url}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(sessions, indent=2, sort_keys=True))
        return 0
    if not sessions:
        print("no sessions")
        return 0
    for row in sessions:
        error = f"  {row['error']}" if row.get("error") else ""
        print(f"{row['id']}  {row['tenant']:10s} {row['scenario']:4s} "
              f"{row['state']:8s} attempts={row['attempts']}{error}")
    return 0


def _cmd_scenarios_list(args) -> int:
    entries = []
    for name in sorted(SCENARIO_BUILDERS):
        scenario = build_scenario(name)
        entries.append({
            "name": name,
            "description": getattr(scenario, "description", ""),
            "symptom": getattr(getattr(scenario, "symptom", None),
                               "description", ""),
            "rules": len(scenario.program.rules),
            "trace_packets": len(scenario.trace()),
        })
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    for entry in entries:
        print(f"{entry['name']:4s} {entry['description']}")
        print(f"     symptom: {entry['symptom']}")
        print(f"     {entry['rules']} rules, "
              f"{entry['trace_packets']} trace packets")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="meta-provenance repair pipeline (NSDI'17 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    repair = sub.add_parser(
        "repair", help="diagnose a scenario and print repair suggestions")
    repair.add_argument("scenario", type=str.upper, nargs="?", default=None,
                        help="registered scenario name (Q1..Q5); optional "
                             "when --config names one")
    _add_config_options(repair)
    repair.set_defaults(func=_cmd_repair)

    backtest = sub.add_parser(
        "backtest", help="print the full candidate verdict table")
    backtest.add_argument("scenario", type=str.upper, nargs="?", default=None)
    _add_config_options(backtest)
    backtest.set_defaults(func=_cmd_backtest)

    lint = sub.add_parser(
        "lint", help="statically analyse an NDlog program")
    lint.add_argument("target",
                      help="registered scenario name (Q1..Q5) or path to "
                           "an .ndlog source file")
    lint.add_argument("--candidates", metavar="FILE",
                      help="vet repair candidates from a JSON wire file "
                           "against the scenario's program")
    lint.add_argument("--json", action="store_true",
                      help="print findings (and vet verdicts) as JSON")
    lint.add_argument("--quiet", action="store_true",
                      help="no 'clean' confirmation on stderr")
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace", help="run the pipeline traced and write a Chrome "
                      "trace_event file")
    trace.add_argument("scenario", type=str.upper, nargs="?", default=None)
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="trace file to write (default: trace.json)")
    _add_config_options(trace)
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="run the pipeline and print the metrics registry")
    stats.add_argument("scenario", type=str.upper, nargs="?", default=None)
    _add_config_options(stats)
    stats.set_defaults(func=_cmd_stats)

    events = sub.add_parser("events", help="event-log tooling")
    events_sub = events.add_subparsers(dest="events_command", required=True)
    summarize = events_sub.add_parser(
        "summarize", help="per-stage/per-candidate timing and veto/abort "
                          "tables from an --events JSONL log")
    summarize.add_argument("file", help="JSONL event log (from --events)")
    summarize.add_argument("--top", type=int, default=5, metavar="N",
                           help="slowest candidates to list (default 5)")
    summarize.add_argument("--json", action="store_true",
                           help="print the summary as JSON")
    summarize.set_defaults(func=_cmd_events_summarize)

    worker = sub.add_parser(
        "worker", help="join a coordinator's worker pool "
                       "(token from REPRO_WORKER_TOKEN)")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT")
    worker.set_defaults(func=_cmd_worker)

    serve = sub.add_parser(
        "serve", help="run the multi-tenant repair service "
                      "(coordinator daemon + HTTP front door)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8180,
                       help="HTTP front-door port (default 8180; "
                            "0 = ephemeral)")
    serve.add_argument("--daemon-host", default="127.0.0.1",
                       help="worker coordinator bind host")
    serve.add_argument("--daemon-port", type=int, default=0,
                       help="worker coordinator port (default 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="local repro-worker processes to spawn")
    serve.add_argument("--no-spawn-workers", action="store_true",
                       help="spawn no local workers (point remote "
                            "repro-worker processes at the daemon port; "
                            "REPRO_WORKER_TOKEN must be set to one secret "
                            "here and for them)")
    serve.add_argument("--fault-plan", metavar="FILE", dest="fault_plan",
                       help="JSON FaultPlan armed against the fleet "
                            "(deterministic chaos reproduction)")
    serve.add_argument("--events", metavar="FILE",
                       help="append every session's event stream to FILE "
                            "as JSONL (session_id/tenant annotated)")
    serve.add_argument("--grace", type=float, default=10.0,
                       help="drain budget in seconds on SIGTERM/SIGINT")
    serve.add_argument("--quiet", action="store_true",
                       help="no per-request HTTP log on stderr")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a repair run to a repro serve front door")
    submit.add_argument("scenario", type=str.upper, nargs="?", default=None,
                        help="registered scenario name (Q1..Q5); optional "
                             "when --config names one")
    submit.add_argument("--url", default="http://127.0.0.1:8180",
                        help="service base URL "
                             "(default http://127.0.0.1:8180)")
    submit.add_argument("--tenant", default=None,
                        help="tenant the session is accounted to")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the session id and return immediately")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="seconds to wait for completion")
    _add_config_options(submit)
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser(
        "status", help="inspect a repro serve service's sessions")
    status.add_argument("session", nargs="?", default=None,
                        help="session id (omit for the full listing)")
    status.add_argument("--url", default="http://127.0.0.1:8180",
                        help="service base URL")
    status.add_argument("--events", action="store_true",
                        help="print the session's event stream as JSONL")
    status.add_argument("--json", action="store_true",
                        help="print the raw wire as JSON")
    status.set_defaults(func=_cmd_status)

    scenarios = sub.add_parser("scenarios", help="scenario catalogue")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command",
                                             required=True)
    listing = scenarios_sub.add_parser("list",
                                       help="list registered scenarios")
    listing.add_argument("--json", action="store_true")
    listing.set_defaults(func=_cmd_scenarios_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
