"""The ``repro`` subcommands other than ``repair``.

:mod:`repro.cli` declares every subcommand but runs only ``repair`` itself;
the handlers of ``backtest``, ``lint``, ``trace``, ``stats``, ``events
summarize``, ``worker``, ``serve``, ``submit``, ``status`` and ``scenarios
list`` live here, and this module is imported when one of them is
dispatched.  A fresh ``repro repair`` therefore compiles none of it.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

from .backtest.ranking import format_table
from .cli import _config_from_args, _run_session
from .events import SessionEvent
from .scenarios import SCENARIO_BUILDERS, build_scenario
from .wire import WireError


def cmd_backtest(args) -> int:
    _, report = _run_session(args)
    if args.json:
        print(json.dumps(report.to_wire(), indent=2, sort_keys=True))
        return 0
    print(format_table(report.backtest.results))
    generated, surviving = report.counts()
    print(f"\n{generated} candidates backtested over "
          f"{report.backtest.packet_count} packets, {surviving} accepted")
    return 0


def cmd_lint(args) -> int:
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


def cmd_trace(args) -> int:
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


def cmd_stats(args) -> int:
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


def cmd_events_summarize(args) -> int:
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


def cmd_serve(args) -> int:
    """Run the multi-tenant repair service (daemon + HTTP front door)."""
    import signal
    import threading

    from .service import RepairServiceDaemon, ServiceHTTPServer

    # Refused before anything binds or launches; a daemon without workers
    # would queue sessions forever.
    if args.workers < 1:
        print(f"repro serve: --workers must be >= 1, not {args.workers}",
              file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"repro serve: --port must be within [0, 65535], "
              f"not {args.port}", file=sys.stderr)
        return 2
    plan = None
    if args.fault_plan:
        from .distrib.faults import FaultPlan
        plan = FaultPlan.from_file(args.fault_plan)
    log_handle = on_event = None
    if args.events:
        log_handle = open(args.events, "a", encoding="utf-8")
        on_event = _WireJsonlLog(log_handle)
    daemon = RepairServiceDaemon(workers=args.workers, fault_plan=plan,
                                 on_event=on_event)
    # The port is bound before a worker is launched, so a busy one leaves
    # no process behind.
    try:
        server = ServiceHTTPServer((args.host, args.port), daemon,
                                   quiet=args.quiet)
    except OSError as error:
        if log_handle is not None:
            log_handle.close()
        print(f"repro serve: cannot listen on {args.host}:{args.port}: "
              f"{error.strerror or error}", file=sys.stderr)
        return 2
    daemon.start()
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
    print(f"repro serve: HTTP on {server.url} ({args.workers} workers)",
          flush=True)
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


def cmd_submit(args) -> int:
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


def cmd_status(args) -> int:
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


def cmd_scenarios_list(args) -> int:
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
