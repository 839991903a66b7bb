#!/usr/bin/env python3
"""The layer ledger's one driver.

Two ways in, one implementation:

* **one run** — ``run.py --workload NAME --seed N --seconds S --trace 0|1``
  (what ``BENCHMARK.json`` declares): measures one workload and prints,
  as the last line of stdout, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
  ``--trace 0``, the per-layer ledger with ``--trace 1``;
* **the suite** — ``run.py [--workload NAME ...] [--json OUT]`` without
  ``--trace``: every selected workload, untraced and then traced, as a
  table of every metric by name with unit, n, median, quartiles, min and
  max, plus host facts; ``--check-repeat`` runs the untraced suite twice
  and fails unless the two agree within each metric's bound.

Every workload runs in child processes of its own, so imports, caches and
rusage never leak between workloads, and each child is its own process
group, so nothing a failed op leaves behind outlives the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(HERE))

import measure as m                                         # noqa: E402

#: Fresh set-ups per run: ``setup_s`` is their median, and the timed
#: window is split evenly between them, so one run samples three process
#: lifetimes (hash seeds, heap layouts) spread over its whole wall time.
ROUNDS = 3
#: The contract allows a run 180 s; children are killed before that.
RUN_TIMEOUT_SECONDS = 170.0
#: Ops run back-to-back for this long (per reference process of a sample)
#: between two samples of the host-speed reference: with ops of 0.5 s and
#: more, every op is read against the samples right around it.
SLICE_SECONDS = 0.5
TRACE_REPS = 3
#: Service sessions probed in a traced run of any workload but service_q1.
SERVICE_PROBE_SESSIONS = 8


def load_manifest() -> Dict[str, object]:
    with open(REPO / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child side: one process lifetime of one workload
# ---------------------------------------------------------------------------


def _verify(module, seed: int, smoke: bool, ops) -> int:
    """Check every op against the goldens; returns how many failed and
    prints each miss to stderr."""
    import golden
    expected = golden.load(module.GOLDEN)
    failed = 0
    for index, op in enumerate(ops):
        problems = ([op.error] if op.wire is None else
                    golden.check(expected, op.label, seed, op.wire,
                                 pinned=not smoke))
        for problem in problems:
            print(f"[{module.NAME}] op {index}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def child_untraced(module, args) -> Dict[str, object]:
    """One process lifetime: reference, set-up, reference, then slices
    of ops with a reference sample between them."""
    from reference import Reference, scale
    reference = Reference(per_core=getattr(module, "PARALLEL", False))
    # A sample costs one reference process per core it covers; slices
    # grow with it so that sampling stays a fixed share of the window.
    slice_seconds = min(args.seconds, SLICE_SECONDS * len(reference.cpus))
    before = reference.sample()
    started = time.perf_counter()
    runner = module.runner(module.inputs(args.seed, args.smoke))
    slices = []
    ops = []
    try:
        runner.setup()
        setup_raw = time.perf_counter() - started
        after = reference.sample()
        setup_scale = scale(before, after)
        window_started = time.perf_counter()
        # A timed window ends on a whole batch of ops (a whole pass over
        # the CLI's five queries), so every round sees the same mix.
        while (len(ops) < args.min_ops
               or time.perf_counter() - window_started < args.seconds
               or (args.seconds and len(ops) % runner.ops_per_batch)):
            before = after
            cpu_before = m.tree_cpu_seconds()
            batch = runner.run_slice(slice_seconds, args.min_ops - len(ops),
                                     first=args.first_op + len(ops))
            cpu_s = m.tree_cpu_seconds() - cpu_before
            after = reference.sample()
            slices.append({
                "first_op": len(ops), "ops": len(batch),
                "wall_s": (max(op.end for op in batch)
                           - min(op.start for op in batch)),
                "cpu_s": cpu_s, "scale": scale(before, after)})
            ops.extend(batch)
        peak_rss_mb = m.tree_peak_rss_mb()
    finally:
        runner.teardown()
    return {
        "setup_raw_s": setup_raw, "setup_scale": setup_scale,
        "slices": slices,
        "op_seconds": [op.seconds for op in ops],
        "failed": _verify(module, args.seed, args.smoke, ops),
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference.samples,
    }


def child_traced(module, args) -> Dict[str, object]:
    import probes
    from reference import Reference
    from spans import Tracer
    tracer = Tracer()
    failures: List[str] = []
    reps = 1 if args.smoke else TRACE_REPS
    # Ledger rows are the seconds the clock showed; the reference's own
    # seconds, sampled at both ends, say how fast the host was meanwhile.
    reference = Reference(per_core=False)
    reference.sample()
    runner = module.runner(module.inputs(args.seed, args.smoke))
    try:
        runner.setup()
        untraced, traced = [], []
        for index in range(reps):        # alternating, so drift cancels
            untraced.append(runner.run_op(index))
            traced.append(runner.run_traced_op(tracer, index))
    finally:
        runner.teardown()
    ops = untraced + traced
    failed = _verify(module, args.seed, args.smoke, ops)
    own, wire_safe = runner.probe_configs()
    metrics = probes.run_probes(
        tracer, own, wire_safe, reps,
        service_sessions=getattr(
            runner, "service_probe_sessions",
            2 if args.smoke else SERVICE_PROBE_SESSIONS),
        op_reports=[op.wire for op in ops
                    if op.label == runner.own_label and op.wire is not None],
        failures=failures)
    metrics["ledger.trace_overhead_ratio"] = (
        statistics.median(op.seconds for op in traced)
        / statistics.median(op.seconds for op in untraced))
    reference.sample()
    metrics["ledger.reference_s"] = statistics.mean(reference.samples)
    for failure in failures:
        print(f"[{module.NAME}] {failure}", file=sys.stderr)
    if args.trace_out:
        tracer.write_chrome(args.trace_out)
    return {"metrics": metrics,
            "attempted": len(ops) + len(failures),
            "failed": failed + len(failures)}


def child_main(args) -> int:
    from workloads import WORKLOADS
    if args.update_expected:
        return child_pin(args)
    module = WORKLOADS[args.workload[0]]
    result = (child_traced if args.trace else child_untraced)(module, args)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class RunError(RuntimeError):
    """A child died, hung, or left processes behind: there is no result."""


def _child_env(seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The hash seed is an input like any other: it decides set and dict
    # iteration order in every process of the run (at least one report
    # field depends on it), so it is drawn from the seed too.
    env["PYTHONHASHSEED"] = str(seed)
    return env


def _spawn_child(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool, min_ops: int, deadline: float,
                 trace_out: Optional[str], first_op: int = 0
                 ) -> Dict[str, object]:
    env = _child_env(seed)
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--min-ops", str(min_ops), "--first-op", str(first_op)]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    # Its own process group: whatever the child starts (CLI runs, spawn
    # workers, the daemon and its fleet) can be swept in one signal.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=env, start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.communicate()
        raise RunError(f"{workload}: child exceeded the run's time limit")
    strays = _await_group_exit(child.pid)
    if strays:
        _kill_group(child.pid)
        raise RunError(f"{workload}: child left processes behind: {strays}")
    if child.returncode != 0:
        raise RunError(f"{workload}: child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _await_group_exit(pgid: int, grace: float = 5.0) -> List[int]:
    """Members of the group still alive ``grace`` seconds after its
    leader was reaped.  Helpers that exit on their own once their parent
    is gone (multiprocessing's resource tracker) get that long."""
    deadline = time.monotonic() + grace
    while True:
        members = m.group_members(pgid)
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.02)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool
                 ) -> Dict[str, object]:
    """One run: ``ROUNDS`` fresh set-ups, the window split between them."""
    rounds = 1 if smoke else ROUNDS
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    # Smoke: no window, exactly two ops.  Each round starts further down
    # the seeded op sequence (at a batch boundary).
    results = [_spawn_child(workload, seed, 0.0 if smoke else seconds / rounds,
                            0, smoke, 2 if smoke else 1, deadline, None,
                            first_op=1000 * index)
               for index in range(rounds)]
    return aggregate(results)


def aggregate(rounds: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold a run's rounds into the end-to-end metrics.

    Every timing is scaled to nominal host speed by the reference samples
    taken around it (see reference.py); the unscaled numbers ride along
    as ``raw`` for a reader who wants the seconds the clock showed.
    """
    sessions = sum(len(r["op_seconds"]) for r in rounds)
    turnaround_raw = [seconds for r in rounds for seconds in r["op_seconds"]]
    turnaround = [seconds * piece["scale"]
                  for r in rounds for piece in r["slices"]
                  for seconds in r["op_seconds"][
                      piece["first_op"]:piece["first_op"] + piece["ops"]]]

    def per_round(key: str, scaled: bool) -> List[float]:
        return [sum(piece[key] * (piece["scale"] if scaled else 1.0)
                    for piece in r["slices"]) for r in rounds]

    wall, cpu = per_round("wall_s", True), per_round("cpu_s", True)
    round_sessions = [len(r["op_seconds"]) for r in rounds]
    samples = {
        "setup_s": [r["setup_raw_s"] * r["setup_scale"] for r in rounds],
        "turnaround_s": turnaround,
        "sessions_per_s": [n / w for n, w in zip(round_sessions, wall)],
        "cpu_s_per_session": [c / n for n, c in zip(round_sessions, cpu)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
    }
    values = {
        "setup_s": statistics.median(samples["setup_s"]),
        "turnaround_s": statistics.median(turnaround),
        "sessions_per_s": sessions / sum(wall),
        "cpu_s_per_session": sum(cpu) / sessions,
        "peak_rss_mb": max(samples["peak_rss_mb"]),
    }
    raw = {
        "setup_s": statistics.median(r["setup_raw_s"] for r in rounds),
        "turnaround_s": statistics.median(turnaround_raw),
        "sessions_per_s": sessions / sum(per_round("wall_s", False)),
        "cpu_s_per_session": sum(per_round("cpu_s", False)) / sessions,
        "reference_s": statistics.median(
            sample for r in rounds for sample in r["reference_s"]),
    }
    return {"attempted": sessions,
            "failed": sum(r["failed"] for r in rounds),
            "values": values, "raw": raw, "samples": samples}


def run_traced(workload: str, seed: int, smoke: bool,
               trace_out: Optional[str]) -> Dict[str, object]:
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    result = _spawn_child(workload, seed, 0.0, 1, smoke, 1, deadline,
                          trace_out)
    return {"attempted": result["attempted"], "failed": result["failed"],
            "values": result["metrics"]}


def contract_line(result: Dict[str, object], declared: List[Dict]) -> str:
    """The one JSON object the driver reads; every declared metric must
    have been measured."""
    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": result["values"][entry["name"]],
                                  "unit": entry["unit"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_rows(title: str, rows: List[m.Summary]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<34} {'unit':<6} {'n':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'min':>12} {'max':>12}  tail")
    for row in rows:
        tail = (f"p{row.tail_percentile:g}={row.tail:.6g}"
                if row.tail_percentile else "-")
        print(f"  {row.name:<34} {row.unit:<6} {row.n:>4} {row.median:>12.6g} "
              f"{row.q1:>12.6g} {row.q3:>12.6g} {row.min:>12.6g} "
              f"{row.max:>12.6g}  {tail}")


def run_suite(args, manifest) -> Dict[str, object]:
    from workloads import WORKLOADS
    declared = [w["name"] for w in manifest["workloads"]]
    selected = [name for name in declared
                if not args.workload or name in args.workload]
    host = m.host_facts()
    document = {"host": host, "seed": args.seed, "smoke": args.smoke,
                "git_commit": _git_commit(), "workloads": {}}
    for index, name in enumerate(selected):
        entry: Dict[str, object] = {
            "load_average_1m": os.getloadavg()[0],
            # A workload that spreads over the cores measures process
            # overhead, not scaling, when there is only one.
            "unscaled": (getattr(WORKLOADS[name], "PARALLEL", False)
                         and host["nproc"] < 2),
        }
        result = run_untraced(name, args.seed, args.seconds, args.smoke)
        rows = [m.measure(metric["name"], metric["unit"],
                          result["samples"][metric["name"]])
                for metric in manifest["end_to_end"]]
        result["rows"] = [dataclasses.asdict(row) for row in rows]
        entry["end_to_end"] = result
        _print_rows(f"{name}: {result['attempted']} sessions, "
                    f"{result['failed']} failed"
                    + (" [unscaled: fewer than 2 cores]"
                       if entry["unscaled"] else ""), rows)
        print("  reported: " + ", ".join(
            f"{key}={value:.6g}" for key, value in result["values"].items()))
        print("  unscaled: " + ", ".join(
            f"{key}={value:.6g}" for key, value in result["raw"].items()))
        # Smoke traces one workload: the ledger's shape, not six fleets.
        if not args.no_traced_run and not (args.smoke and index):
            trace_out = None
            if args.trace_out:
                path = pathlib.Path(args.trace_out)
                trace_out = str(path.with_name(
                    f"{path.stem}.{name}{path.suffix}"))
            traced = run_traced(name, args.seed, args.smoke, trace_out)
            entry["per_layer"] = traced
            print(f"  per-layer ledger ({traced['failed']} failed checks):")
            for metric in manifest["per_layer"]:
                value = traced["values"][metric["name"]]
                print(f"    {metric['name']:<34} {metric['unit']:<6} "
                      f"{value:>14.6g}")
        document["workloads"][name] = entry
    return document


def suite_failed(document) -> int:
    return sum(entry[section]["failed"]
               for entry in document["workloads"].values()
               for section in ("end_to_end", "per_layer") if section in entry)


def check_repeat(first, second, manifest) -> bool:
    """Do two suites of the same code agree within every metric's bound?"""
    agree = True
    print("\nrepeatability (two runs of the same code):")
    for name, entry in first["workloads"].items():
        for metric in manifest["end_to_end"]:
            a = entry["end_to_end"]["values"][metric["name"]]
            b = second["workloads"][name]["end_to_end"]["values"][
                metric["name"]]
            drift = abs(b - a) / a
            ok = drift <= metric["bound"]
            agree = agree and ok
            print(f"  {name:<16} {metric['name']:<18} {a:>12.6g} {b:>12.6g} "
                  f"{drift:>7.1%} (bound {metric['bound']:.0%}) "
                  f"{'ok' if ok else 'DISAGREE'}")
    return agree


def child_pin(args) -> int:
    """Serial in-process reports of every golden config at one seed."""
    import golden
    from workloads import WORKLOADS
    from workloads.base import run_session
    entries = {}
    for name, module in WORKLOADS.items():
        if module.GOLDEN != name:
            continue                     # shares another workload's file
        runner = module.runner(module.inputs(args.seed, False))
        entries[name] = {
            label: golden.golden_entry(run_session(config)[1].to_wire())
            for label, config in runner.golden_configs().items()}
    print(json.dumps(entries))
    return 0


def update_expected() -> None:
    """Re-pin expected/ (a maintenance path: only for a change that is
    meant to alter reports)."""
    import golden
    pinned: Dict[str, Dict[str, Dict]] = {}
    for seed in golden.PINNED_SEEDS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child",
             "--update-expected", "--seed", str(seed)],
            env=_child_env(seed), capture_output=True, text=True, check=True)
        for name, entries in json.loads(done.stdout).items():
            for label, entry in entries.items():
                slot = pinned.setdefault(name, {}).setdefault(
                    label, {"verdicts": entry["verdicts"], "digests": {}})
                if slot["verdicts"] != entry["verdicts"]:
                    raise SystemExit(f"{label}: verdicts depend on the seed")
                slot["digests"][str(seed)] = entry["digest"]
    for name, labels in pinned.items():
        with open(golden.EXPECTED_DIR / f"{name}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(labels, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"pinned expected/{name}.json: {sorted(labels)}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window of one run, split over its "
                             "set-ups")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in the contract's format: 0 = "
                             "end-to-end metrics, 1 = per-layer ledger")
    parser.add_argument("--json", metavar="OUT",
                        help="suite: write every result and the host facts")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced run's spans as Chrome trace "
                             "JSON (suite: one file per workload)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two ops per workload, one set-up")
    parser.add_argument("--no-traced-run", action="store_true")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced suite twice; exit non-zero "
                             "unless they agree within every bound")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin expected/ from serial in-process runs")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--first-op", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure at {SRC}/repro",
              file=sys.stderr)
        return 2
    manifest = load_manifest()
    known = [w["name"] for w in manifest["workloads"]]
    unknown = [name for name in args.workload if name not in known]
    if unknown:
        print(f"ledger: unknown workload(s) {unknown}; have {known}",
              file=sys.stderr)
        return 2
    if args.update_expected:
        update_expected()
        return 0
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    try:
        if args.trace is not None:
            if len(args.workload) != 1:
                print("ledger: --trace takes exactly one --workload",
                      file=sys.stderr)
                return 2
            if args.trace:
                result = run_traced(args.workload[0], args.seed, args.smoke,
                                    args.trace_out)
                declared = manifest["per_layer"]
            else:
                result = run_untraced(args.workload[0], args.seed,
                                      args.seconds, args.smoke)
                declared = manifest["end_to_end"]
            print(contract_line(result, declared))
            return 0 if result["failed"] == 0 else 1
        if args.check_repeat:
            args.no_traced_run = True
        document = run_suite(args, manifest)
        failed = suite_failed(document)
        agree = True
        if args.check_repeat:
            second = run_suite(args, manifest)
            failed += suite_failed(second)
            agree = check_repeat(document, second, manifest)
            document = {"first": document, "second": second, "agree": agree}
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1)
                handle.write("\n")
        print(f"\nledger: {failed} failed sessions or checks"
              + ("" if agree else "; the two runs DISAGREE"))
        return 0 if failed == 0 and agree else 1
    except RunError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
