"""Stage counts: Python calls per repair stage, and plan code compiled.

A tool, not a test — pytest does not collect this file.  Each row runs in a
fresh interpreter under ``PYTHONHASHSEED=0``, so its plan cache starts cold,
as a ``repro repair`` does: one serial session, stage by stage, under a
``sys.setprofile`` call counter (the ledger's ``api.python_calls``).  The
stages are the scenario build (``session.scenario``), then ``diagnose``,
``generate``, ``backtest`` and ``rank``; ``compiled`` is the plan code
objects the session compiled (``PLAN_CACHE`` misses).  The rows are Q1 and
Q4 at 14 candidates and the session shapes of three ledger workloads, built
by the ledger's own workload modules (``benchmarks/ledger/workloads``) at
seed 0: ``trace_heavy``, ``candidate_heavy`` and ``program_heavy``.  Every
count repeats exactly from run to run on one CPython minor version.

Each stage's calls are also split into *cells* by the package of the code
entered: ``ndlog``, ``sdn``, ``controllers``, ``meta``, ``repair``,
``analysis``, ``backtest`` and ``api`` under ``repro/``; ``<generated>``,
the code ``@dataclass`` and the rule plans compile at run time; ``other``,
everything else (the standard library and the rest of ``repro/``); and
``import``, every call made while a module is imported for the first time
(``importlib._bootstrap._find_and_load`` on the stack: the import system's
own frames and the module's top-level code), whatever package it enters.
A stage's cells sum to its count.

    PYTHONPATH=src python tests/perf/stage_counts.py
    PYTHONPATH=src python tests/perf/stage_counts.py --check
    PYTHONPATH=src python tests/perf/stage_counts.py --append COMMIT

``--check`` fails when a count exceeds the last entry of
``BENCH_counts.json`` (repository root) by more than 10 %, the work-count
ceiling of ``tests/perf/test_work_counts.py``: each stage's count and the
session's without their ``import`` cell, every other cell, and the
session's ``import`` total.  So a first import that moves from one stage to
another fails nothing, and new import work still does.  ``--append`` adds
an entry (commit, CPython version, rows) to that file.  A change that moves
the counts on purpose appends its own entry.
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
LEDGER = ROOT / "benchmarks" / "ledger"
TRAJECTORY = ROOT / "BENCH_counts.json"
ROWS = ("Q1@14", "Q4", "trace_heavy", "candidate_heavy", "program_heavy")
#: The scenario build, then the session's steps (`repro.api.STEPS`).
STAGES = ("scenario", "diagnose", "generate", "backtest", "rank")
PACKAGES = ("ndlog", "sdn", "controllers", "meta", "repair", "analysis",
            "backtest", "api")
CELLS = PACKAGES + ("<generated>", "other", "import")
#: File names of the code compiled at run time: what ``@dataclass`` writes
#: (``__init__`` and friends) and the rule plans.
GENERATED = ("<string>", "<rule plan>")
CEILING = 1.10


def _config(row):
    """The session config wire of ``row``."""
    if row in ("Q1@14", "Q4"):
        from repro.api import RepairConfig
        return RepairConfig.for_scenario(row.split("@")[0],
                                         max_candidates=14).to_wire()
    sys.path.insert(0, str(LEDGER))
    from workloads import WORKLOADS
    module = WORKLOADS[row]
    return module.runner(module.inputs(0, smoke=False)).config


def _cell_of(filename, package_root):
    """The cell of the code a file name holds (see the module docstring)."""
    if filename in GENERATED:
        return "<generated>"
    if filename.startswith(package_root):
        package = filename[len(package_root):].split(os.sep, 1)[0]
        if package in PACKAGES:
            return package
    return "other"


def _python_calls(call):
    """``{cell: calls}`` of ``call()``."""
    import importlib._bootstrap
    import repro
    package_root = os.path.dirname(repro.__file__) + os.sep
    find_and_load = importlib._bootstrap._find_and_load.__code__
    cells = dict.fromkeys(CELLS, 0)
    cell_of = {}
    importing = 0       # _find_and_load frames on the stack

    def profiler(frame, event, arg):
        nonlocal importing
        code = frame.f_code
        if event == "call":
            if code is find_and_load:
                importing += 1
            if importing:
                cells["import"] += 1
                return
            filename = code.co_filename
            cell = cell_of.get(filename)
            if cell is None:
                cell = cell_of[filename] = _cell_of(filename, package_root)
            cells[cell] += 1
        elif event == "return" and code is find_and_load:
            importing -= 1

    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(None)
    return cells


def count_row(row):
    """The counts of ``row``, measured in this interpreter: per stage, the
    session, the code compiled, and per stage its cells."""
    from repro.api import STEPS, RepairSession
    from repro.ndlog.plan import PLAN_CACHE
    from repro.repair import reset_candidate_ids
    config = _config(row)
    reset_candidate_ids()
    session = RepairSession.from_wire(config)
    compiled = PLAN_CACHE.misses
    cells = {"scenario": _python_calls(lambda: session.scenario)}
    for stage in STEPS:
        cells[stage] = _python_calls(lambda: session.run(until=stage))
    counts = {stage: sum(cells[stage].values()) for stage in STAGES}
    counts["session"] = sum(counts.values())
    counts["compiled"] = PLAN_CACHE.misses - compiled
    counts["cells"] = cells
    return counts


def measure():
    """``{row: counts}``, each row in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    rows = {}
    for row in ROWS:
        out = subprocess.run(
            [sys.executable, __file__, "--row", row], env=env, check=True,
            capture_output=True, text=True).stdout
        rows[row] = json.loads(out.splitlines()[-1])
    return rows


def table(rows):
    """Markdown: the counts per stage, then the session's calls per cell."""
    columns = STAGES + ("session", "compiled")
    lines = ["| row | " + " | ".join(columns) + " |",
             "| --- |" + " ---: |" * len(columns)]
    for row, counts in rows.items():
        lines.append(f"| {row} | " + " | ".join(
            f"{counts[column]:,}" for column in columns) + " |")
    lines += ["", "| row | " + " | ".join(CELLS) + " |",
              "| --- |" + " ---: |" * len(CELLS)]
    for row, counts in rows.items():
        lines.append(f"| {row} | " + " | ".join(
            f"{sum(counts['cells'][stage][cell] for stage in STAGES):,}"
            for cell in CELLS) + " |")
    return "\n".join(lines)


def _flat(counts):
    """``{name: count}`` of one row, as ``--check`` compares it: the stage
    and session counts without their ``import`` cell, ``compiled``, every
    ``stage/cell`` but ``import``, and the session's ``import`` total (an
    entry from before the ``import`` cell has none to take away)."""
    cells = counts.get("cells", {})
    imports = {stage: split.get("import", 0) for stage, split in cells.items()}
    flat = {column: count - imports.get(column, 0)
            for column, count in counts.items()
            if column not in ("cells", "session")}
    flat["session"] = counts["session"] - sum(imports.values())
    for stage, split in cells.items():
        flat.update({f"{stage}/{cell}": count
                     for cell, count in split.items() if cell != "import"})
    if any("import" in split for split in cells.values()):
        flat["import"] = sum(imports.values())
    return flat


def check(rows, entry):
    """The counts and cells of ``rows`` above ``CEILING`` x ``entry``'s (an
    entry without cells checks the counts only)."""
    over = []
    for row, counts in rows.items():
        if row not in entry["rows"]:
            continue
        pinned = _flat(entry["rows"][row])
        over += [f"{row} {name}: {count:,} > {CEILING:.2f} x "
                 f"{pinned[name]:,}"
                 for name, count in _flat(counts).items()
                 if count > CEILING * pinned.get(name, count)]
    return over


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--append", metavar="COMMIT")
    args = parser.parse_args()
    if args.row:
        print(json.dumps(count_row(args.row)))
        return 0
    rows = measure()
    print(table(rows))
    version = platform.python_version()
    entries = (json.loads(TRAJECTORY.read_text())
               if TRAJECTORY.exists() else [])
    if args.append:
        entries.append({"commit": args.append, "python": version,
                        "rows": rows})
        TRAJECTORY.write_text(json.dumps(entries, indent=2) + "\n")
    if args.check:
        if not entries:
            print(f"no entry in {TRAJECTORY.name} to check against")
            return 1
        last = entries[-1]
        if last["python"].split(".")[:2] != version.split(".")[:2]:
            print(f"counts were taken on CPython {last['python']}, this is "
                  f"{version}: nothing to compare")
            return 0
        over = check(rows, last)
        for line in over:
            print(line)
        print(f"{len(over)} counts above {CEILING:.2f} x the entry of "
              f"{last['commit']}")
        return 1 if over else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
