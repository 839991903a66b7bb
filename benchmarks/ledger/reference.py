"""The host-speed reference every timing is read against.

On a shared host the same work takes 16, 21 or 29 ms depending on what the
neighbours do, in plateaus of seconds to minutes; ten runs of one workload
spread by 10-25 %.  A run cannot outwait that, but it can measure it: a
small, frozen piece of work of the same kind as the program under test —
a fresh interpreter, a dozen stdlib imports, dataclass/dict/list/JSON
churn — is run between slices of ops, and every timing is scaled by

    NOMINAL_SECONDS / (seconds the reference took around that slice)

so a number reads as "seconds on this host at its nominal speed".  The
reference depends on nothing in the repository: a change to ``src/``
cannot move it, only the host can.

For a workload that keeps one core busy at a time the reference is one
unpinned process, which the scheduler places as it places the ops.  For a
workload that spreads over the cores it is run once pinned to each core
and the fastest is taken: the shared slowdown is common to all of them,
while a spike on one core is not what a fleet that balances its queue
waits for.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: What the reference takes on the host the first numbers were read on,
#: in its most common state.  A constant: it only fixes the unit.
NOMINAL_SECONDS = 0.2

#: Frozen.  Editing this re-bases every number the benchmark ever gave.
REFERENCE_SOURCE = r'''
import os, sys
if sys.argv[1] != "any":
    os.sched_setaffinity(0, {int(sys.argv[1])})
import argparse, collections, dataclasses, functools, heapq, itertools
import json, random, re, statistics, typing

@dataclasses.dataclass(frozen=True)
class Fact:
    table: int
    values: tuple

def work(n):
    tables = collections.defaultdict(list)
    total = 0
    for i in range(n):
        fact = Fact(i & 1023, (i % 7, i % 13, "x%d" % (i % 97)))
        rows = tables[fact.values[2]]
        rows.append(fact)
        if len(rows) > 40:
            del rows[:20]
        total += hash(fact) & 7
        if i % 500 == 0:
            total += len(json.dumps([dataclasses.asdict(r) for r in rows]))
    return total

work(60000)
'''


class Reference:
    """Samples the host's speed; one instance per child process."""

    def __init__(self, per_core: bool):
        self.cpus: List[Optional[int]] = (
            sorted(os.sched_getaffinity(0)) if per_core else [None])
        #: Every sample taken, in order (reported with the results).
        self.samples: List[float] = []

    def _run(self, cpu: Optional[int]) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", REFERENCE_SOURCE,
             "any" if cpu is None else str(cpu)],
            check=True, timeout=60)
        return time.perf_counter() - started

    def sample(self) -> float:
        seconds = min(self._run(cpu) for cpu in self.cpus)
        self.samples.append(seconds)
        return seconds


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two reference samples
    into seconds at nominal speed."""
    return NOMINAL_SECONDS / statistics.mean((before, after))
