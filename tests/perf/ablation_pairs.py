"""Ablation pairs: does a default-on mechanism pay for itself?

A tool, not a test — pytest does not collect this file.  In one process it
alternates the default ``RepairConfig`` with one field flipped, on the
session shapes of three ledger workloads, built by the ledger's own workload
modules (``benchmarks/ledger/workloads``) at seed 0: ``trace_heavy`` (14
candidates over a 2.9k-packet trace), ``candidate_heavy`` (100 candidates
over Q1's short trace) and ``program_heavy`` (Q1 padded to 250 rules).

Each pair times one window of back-to-back sessions per side, and the side
that runs first alternates from pair to pair.  A window reads the median
session time in it, scaled to nominal host speed by the ledger's host-speed
reference sampled before and after it (``benchmarks/ledger/reference.py``:
on a shared host the same work runs in plateaus 30-50 % apart), so a reading
is in the unit of the ledger's ``turnaround_s``.  Per shape it prints each
side's median and quartiles over the pairs, every pair's two readings, and
how many pairs each side won (a tie counts for neither).  The last line is
the same as JSON.

    PYTHONPATH=src python tests/perf/ablation_pairs.py static_vet=false \
        [--pairs 10] [--seconds 3] [--shape program_heavy ...]

The value after ``=`` is JSON (``false``, ``8``, ``null``).  To measure
another checkout, point ``PYTHONPATH`` at its ``src``.
"""

import argparse
import json
import pathlib
import statistics
import sys
import time

LEDGER = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
SHAPES = ("trace_heavy", "candidate_heavy", "program_heavy")


def window(run_session, reference, config, seconds, min_sessions=3):
    """Median seconds, at nominal host speed, of the sessions of ``config``
    run back to back for about ``seconds``."""
    from reference import scale
    times = []
    before = reference.sample()
    started = time.perf_counter()
    while (len(times) < min_sessions
           or time.perf_counter() - started < seconds):
        begin = time.perf_counter()
        run_session(config)
        times.append(time.perf_counter() - begin)
    return statistics.median(times) * scale(before, reference.sample())


def summary(readings):
    """``(median, first quartile, third quartile)`` of ``readings``."""
    first, median, third = statistics.quantiles(readings, n=4,
                                                method="inclusive")
    return median, first, third


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("knob", help="FIELD=JSON, e.g. static_vet=false")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--shape", action="append", choices=SHAPES)
    args = parser.parse_args()
    field, _, value = args.knob.partition("=")
    try:
        flipped_value = json.loads(value)
    except ValueError:
        parser.error(f"{args.knob!r}: the value after '=' must be JSON")
    sys.path.insert(0, str(LEDGER))
    from reference import Reference
    from workloads import WORKLOADS
    from workloads.base import run_session

    reference = Reference(per_core=False)
    results = {}
    for shape in args.shape or SHAPES:
        module = WORKLOADS[shape]
        default = module.runner(module.inputs(0, smoke=False)).config
        if field not in default:
            parser.error(f"{field!r} is not a RepairConfig field")
        configs = {"default": default,
                   args.knob: dict(default, **{field: flipped_value})}
        for config in configs.values():
            run_session(config)                 # warm-up, discarded
        readings = {side: [] for side in configs}
        for pair in range(args.pairs):
            order = list(configs) if pair % 2 == 0 else list(configs)[::-1]
            for side in order:
                readings[side].append(window(
                    run_session, reference, configs[side], args.seconds))
        on, off = readings["default"], readings[args.knob]
        wins = {"default": sum(a < b for a, b in zip(on, off)),
                args.knob: sum(b < a for a, b in zip(on, off))}
        results[shape] = {"readings": readings, "wins": wins}
        print(f"{shape}: {args.pairs} pairs, {args.seconds:g} s windows, "
              "session seconds at nominal host speed, median [quartiles]")
        for side in configs:
            median, first, third = summary(readings[side])
            print(f"  {side:>20}  {median:.4f} [{first:.4f}, {third:.4f}]  "
                  f"wins {wins[side]}/{args.pairs}")
        gap = statistics.median(on) / statistics.median(off) - 1
        print(f"  default vs {args.knob}: {gap:+.1%}; pairs "
              + ", ".join(f"{a:.4f}/{b:.4f}" for a, b in zip(on, off)))
    print(json.dumps({"knob": args.knob, "pairs": args.pairs,
                      "seconds": args.seconds, "shapes": results}))


if __name__ == "__main__":
    main()
