"""Call census: which functions under ``src/repro`` does no workload enter?

A tool for sizing diet PRs, not a test — pytest does not collect this file.
Under a ``sys.setprofile`` / ``threading.setprofile`` hook it runs, in this
process: serial Q1–Q5 sessions with the default config and once per ablation
knob (plain Q1 with 100 candidates, the rest with 14; the abort row pairs
``EarlyAbortPolicy()`` with ``max_packet_in_growth=2.0``, so the overload
check runs at every check point and aborts one of Q4's 11 candidates), each
session's explanations read (its forest, and each suggestion's tree
printed), a ``workers=2`` session on the ``inprocess`` transport (the scheduler's
zero-worker case: its serial drain, not a fleet) and the exit hook that
closes idle fleets, one Q1 session through an in-process repair service
(a ``RepairServiceDaemon`` without workers and its ``ServiceHTTPServer``:
HTTP submit, the daemon's ``assign``/``event``/``result`` hooks driven by
hand around the worker's ``RepairJobRuntime``, an events follow, a long
poll and ``/healthz``, then the drain), the two ``other_languages``
scenarios (Table 3) and every CLI subcommand that needs no running service,
``repro lint`` also over a file of Q1's explorer candidates;
then it walks each module's AST and prints the functions never entered, and
the modules no workload imported, each with the ``src/repro`` modules whose
import statements (or lazy re-exports) name it.
The hook is installed before any ``repro`` module is imported, so what runs
at import time (``lazy_exports``, ``register_scenario``, decorators) counts
as entered.  Out of reach: worker subprocesses and the worker loop
(``spawn``, ``socket``), the pool's worker links and frames, the ``repro serve``
/ ``submit`` / ``status`` front ends, the compiled fire functions and what
``@dataclass`` writes.  "Never entered here" opens an investigation — the
function may be the fleet's, a test oracle's or an error path's — it does
not close one.  A module nothing imports here is the first place to look:
either a subprocess or the service runs it, or it belongs with the tests.
The last line is the total, and CI holds it to a ceiling
(``--max-never-entered N``: exit 1 above it) that each diet PR lowers to its
own total, so the number can only fall.

    PYTHONPATH=src python tests/perf/uncalled.py [--max-never-entered N]
"""

import argparse
import ast
import contextlib
import io
import json
import pathlib
import sys
import tempfile
import threading

ENTERED = set()      # (file name, first line) of every code object entered


def _profile(frame, event, _arg):
    if event == "call":
        ENTERED.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


def service_session(config):
    """One session through an in-process daemon and its HTTP front door,
    the pool's policy hooks called by hand (no worker), as the service
    suite's long-poll tests do; the run is the worker's runtime, here."""
    from types import SimpleNamespace

    from repro.service import (RepairServiceDaemon, ServiceClient,
                               ServiceHTTPServer)
    from repro.service.runtime import RepairJobRuntime

    daemon = RepairServiceDaemon(workers=0).start()
    server = ServiceHTTPServer(("127.0.0.1", 0), daemon)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        client = ServiceClient(server.url)
        session_id = client.submit(config, tenant="census")["id"]
        job = daemon.assign(SimpleNamespace(worker_id=0))
        followed = []
        follower = threading.Thread(target=lambda: followed.extend(
            client.events(session_id, follow=True)))
        follower.start()
        runtime = RepairJobRuntime(job.wire)
        runtime.set_event_sink(lambda wire: daemon.event(job, wire))
        daemon.result(job, None, runtime.evaluate(0))
        follower.join(timeout=60)
        assert client.wait(session_id, timeout=60)["state"] == "done"
        assert followed and client.health()["sessions_total"] == 1
    finally:
        server.stop(grace=5.0)


def workloads():
    """Everything the census runs, its ``repro`` imports included."""
    from repro.api import RepairConfig, RepairSession, TelemetryConfig
    from repro.backtest.abort import EarlyAbortPolicy
    from repro.cli import main as cli
    from repro.distrib import close_parked_fleets
    from repro.meta import MetaProvenanceExplorer
    from repro.repair import candidate_to_wire
    from repro.scenarios import build_scenario
    from repro.scenarios.other_languages import language_reports

    knob_rows = ({}, {"static_vet": False},
                 {"abort": EarlyAbortPolicy(), "max_packet_in_growth": 2.0},
                 {"telemetry": TelemetryConfig()})
    for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
        for knobs in knob_rows:
            budget = 14 if knobs or name != "Q1" else 100
            report = RepairSession(RepairConfig.for_scenario(
                name, max_candidates=budget, **knobs)).run()
            # A reader of the explanations, which are built when read: the
            # forest, and each suggestion's tree printed (as
            # examples/firewall_policy_update.py prints one).
            len(report.exploration.forest)
            for result in report.suggestions():
                result.candidate.tree.to_text()
    RepairSession(RepairConfig.for_scenario(
        "Q1", max_candidates=14, workers=2, transport="inprocess")).run()
    # What interpreter exit runs after a fabric session (an atexit hook,
    # past the reach of the profile): idle fleets are closed.
    close_parked_fleets()
    service_session(RepairConfig.for_scenario("Q1", max_candidates=14))
    language_reports()
    with tempfile.TemporaryDirectory() as tmp:
        events, trace = f"{tmp}/events.jsonl", f"{tmp}/trace.json"
        # The backtest asks the vetter only for a veto; its lint verdicts
        # (findings, ``describe``) are what ``repro lint --candidates`` runs.
        candidates = f"{tmp}/candidates.json"
        scenario = build_scenario("Q1")
        explorer = MetaProvenanceExplorer(
            scenario.program, scenario.history_index(), max_candidates=14)
        with open(candidates, "w", encoding="utf-8") as handle:
            json.dump([candidate_to_wire(candidate) for candidate in
                       explorer.explore_missing(scenario.goal()).candidates],
                      handle)
        for argv in (["repair", "q1", "--quiet", "--json", "--events", events],
                     ["backtest", "q1", "--quiet"], ["lint", "q1"],
                     ["lint", "q1", "--candidates", candidates],
                     ["trace", "q1", "--quiet", "--out", trace],
                     ["stats", "q1", "--quiet"],
                     ["events", "summarize", events], ["scenarios", "list"]):
            cli(argv)


def never_entered(path):
    """``(qualified name, line)`` of each function of ``path`` not entered,
    and how many it defines."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    missing, total = [], 0

    def walk(node, prefix):
        nonlocal total
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions):
                total += 1
                # A decorated function's code object starts at its decorator.
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                if (str(path), first) not in ENTERED:
                    missing.append((prefix + child.name, child.lineno))
            walk(child, prefix + child.name + "." if isinstance(
                child, functions + (ast.ClassDef,)) else prefix)

    walk(ast.parse(path.read_text()), "")
    return missing, total


def module_name(path):
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def importers(paths):
    """``{module: sorted modules of src/repro that import it}``, read from
    import statements and ``lazy_exports`` tables."""
    modules = {module_name(path) for path in paths}
    found = {}
    for path in paths:
        importer = module_name(path)
        package = importer if path.name == "__init__.py" \
            else importer.rpartition(".")[0]
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                parts = package.split(".")
                base = parts[:len(parts) + 1 - node.level] if node.level else []
                source = ".".join(base + ([node.module] if node.module else []))
                targets.add(source)
                targets.update(f"{source}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) == "lazy_exports":
                # A key with a leading dot names a module of the parent.
                targets.update(
                    package.rpartition(".")[0] + key.value
                    if key.value.startswith(".") else
                    f"{package}.{key.value}" for key in node.args[1].keys)
        for target in targets & modules - {importer}:
            found.setdefault(target, set()).add(importer)
    return {module: sorted(names) for module, names in found.items()}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-never-entered", type=int, metavar="N")
    ceiling = parser.parse_args().max_never_entered
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        workloads()
    sys.setprofile(None)
    import repro
    ROOT = pathlib.Path(repro.__file__).resolve().parent
    imported = set(sys.modules)
    paths = sorted(ROOT.rglob("*.py"))
    all_missing = all_functions = 0
    for path in paths:
        missing, total = never_entered(path)
        all_missing += len(missing)
        all_functions += total
        if missing:
            print(f"{path.relative_to(ROOT.parent)}: "
                  f"{len(missing)} of {total} functions never entered")
        for name, line in missing:
            print(f"    {name}  (line {line})")
    named_by = importers(paths)
    unimported = [module_name(path) for path in paths
                  if module_name(path) not in imported]
    print(f"{len(unimported)} modules no workload imports:")
    for module in unimported:
        print(f"    {module}  imported by: "
              f"{', '.join(named_by.get(module, ())) or 'nothing in src'}")
    print(f"total: {all_missing} of {all_functions} functions never entered")
    if ceiling is not None and all_missing > ceiling:
        sys.exit(f"{all_missing} functions never entered, more than the "
                 f"{ceiling} allowed: delete what the change left without a "
                 "caller, or say what enters it")
