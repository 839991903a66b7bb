"""``python -m repro`` — the command-line face of the repair pipeline.

Subcommands (all built on :mod:`repro.api`):

* ``repro repair Q1`` — run the full Diagnose → Generate → Backtest →
  Rank pipeline and print the surviving repair suggestions.
* ``repro backtest Q1`` — same pipeline, but print the full candidate
  verdict table (every backtested candidate with its KS statistic).
* ``repro lint Q1`` (or a ``.ndlog`` file) — statically analyse a
  program; ``--candidates FILE`` also vets repair candidates against it.
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

This module runs ``repair``; the other handlers live in
:mod:`repro.cli_tools`, imported only when one of them is dispatched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace as _dc_replace
from typing import List, Optional

from .api import (EventBus, JsonlEventWriter, RepairConfig, RepairSession,
                  SessionEvent, TelemetryConfig)
from .api.config import TRANSPORTS
from .backtest.abort import EarlyAbortPolicy


#: The run flags that set one ``RepairConfig`` field each:
#: ``(argument group, field, type or choices, metavar, help)``.  The flag is
#: the field's name with dashes; ``None`` (flag absent) keeps the config's
#: value.
_CONFIG_FLAGS = (
    ("run", "max_candidates", int, "N",
     "candidate budget for the explorer"),
    ("run", "trace_limit", int, "N", "replay only the first N trace packets"),
    ("run", "ks_threshold", float, "X",
     "KS acceptance threshold (default: scenario's)"),
    ("run", "max_packet_in_growth", float, "X",
     "reject repairs growing PacketIn load beyond X×"),
    ("sched", "workers", int, "N", "worker count for candidate evaluation"),
    ("sched", "transport", TRANSPORTS, None,
     "evaluate candidates through the distributed fabric instead of the "
     "local path"),
)


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """Options mirroring RepairConfig knobs (None = keep config default)."""
    groups = {"run": parser.add_argument_group("pipeline configuration"),
              "sched": parser.add_argument_group("scheduling")}
    groups["run"].add_argument("--config", metavar="FILE",
                               help="JSON RepairConfig to start from "
                                    "(CLI flags override it)")
    for group, name, kind, metavar, text in _CONFIG_FLAGS:
        typed = ({"choices": kind} if isinstance(kind, tuple)
                 else {"type": kind, "metavar": metavar})
        groups[group].add_argument("--" + name.replace("_", "-"), help=text,
                                   **typed)
    sched = groups["sched"]
    sched.add_argument("--fault-plan", metavar="FILE", dest="fault_plan",
                       help="JSON FaultPlan injected into the transport "
                            "(deterministic chaos reproduction)")
    sched.add_argument("--abort-check-every", type=int, metavar="N",
                       help="enable early abort, checking every N packets")
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
        return _fold_args(args)
    except (OSError, ValueError) as exc:     # WireError is a ValueError
        print(f"repro {args.command}: {exc}", file=sys.stderr)
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
    for _, name, _, _, _ in _CONFIG_FLAGS:
        if getattr(args, name) is not None:
            updates[name] = getattr(args, name)
    transport_options = dict(config.transport_options)
    if getattr(args, "fault_plan", None):
        from .distrib.faults import FaultPlan
        # Stored as its wire dict so the folded config stays JSON-able;
        # the transport coerces it back into a FaultPlan.
        transport_options["fault_plan"] = \
            FaultPlan.from_file(args.fault_plan).to_wire()
    if transport_options != config.transport_options:
        updates["transport_options"] = transport_options
    if args.abort_check_every is not None:
        updates["abort"] = _dc_replace(config.abort or EarlyAbortPolicy(),
                                       check_every=args.abort_check_every)
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



class _Tool:
    """The handler ``name`` of :mod:`repro.cli_tools`, imported when its
    subcommand is dispatched."""

    def __init__(self, name: str):
        self.name = name

    def resolve(self):
        from . import cli_tools
        return getattr(cli_tools, self.name)

    def __call__(self, args) -> int:
        return self.resolve()(args)


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
    backtest.set_defaults(func=_Tool("cmd_backtest"))

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
    lint.set_defaults(func=_Tool("cmd_lint"))

    trace = sub.add_parser(
        "trace", help="run the pipeline traced and write a Chrome "
                      "trace_event file")
    trace.add_argument("scenario", type=str.upper, nargs="?", default=None)
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="trace file to write (default: trace.json)")
    _add_config_options(trace)
    trace.set_defaults(func=_Tool("cmd_trace"))

    stats = sub.add_parser(
        "stats", help="run the pipeline and print the metrics registry")
    stats.add_argument("scenario", type=str.upper, nargs="?", default=None)
    _add_config_options(stats)
    stats.set_defaults(func=_Tool("cmd_stats"))

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
    summarize.set_defaults(func=_Tool("cmd_events_summarize"))

    serve = sub.add_parser(
        "serve", help="run the multi-tenant repair service "
                      "(coordinator daemon + HTTP front door)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind host (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8180,
                       help="HTTP front-door port (default 8180; "
                            "0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes to launch (default 2)")
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
    serve.set_defaults(func=_Tool("cmd_serve"))

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
    submit.set_defaults(func=_Tool("cmd_submit"))

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
    status.set_defaults(func=_Tool("cmd_status"))

    scenarios = sub.add_parser("scenarios", help="scenario catalogue")
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command",
                                             required=True)
    listing = scenarios_sub.add_parser("list",
                                       help="list registered scenarios")
    listing.add_argument("--json", action="store_true")
    listing.set_defaults(func=_Tool("cmd_scenarios_list"))

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # The reader went away (``repro repair q1 --json | head``).  Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
