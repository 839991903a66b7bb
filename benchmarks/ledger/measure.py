"""The ledger's one measurement primitive, plus process-tree accounting.

:func:`measure` turns a list of samples into the row every table of the
ledger prints: n, median, quartiles, min, max and the highest percentile
that still has at least ten samples beyond it (a tail read off fewer
samples than that does not repeat).  The process-tree helpers read
``/proc`` so that CPU and memory of spawned workers and of the daemon's
fleet are charged to the workload that started them.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, highest first.
_TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)
_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


@dataclass
class Summary:
    """One ledger row: the distribution of one metric's samples."""

    name: str
    unit: str
    n: int
    median: float
    q1: float
    q3: float
    min: float
    max: float
    #: Highest percentile with at least ten samples beyond it, or ``None``.
    tail_percentile: Optional[float]
    tail: Optional[float]


def _rank(n: int, p: float) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples (1-based);
    rounded first, so that 99.9 % of 10000 is 9990 and not 9990.000…02."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile of ``n`` samples with ten samples beyond it."""
    for p in _TAILS:
        if n - _rank(n, p) >= 10:
            return p
    return None


def measure(name: str, unit: str, samples: Sequence[float]) -> Summary:
    """Summarise ``samples`` (at least one) as a ledger row."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError(f"metric {name!r} has no samples")
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    tail_p = tail_percentile(len(values))
    return Summary(name=name, unit=unit, n=len(values), median=median,
                   q1=q1, q3=q3, min=min(values), max=max(values),
                   tail_percentile=tail_p,
                   tail=percentile(values, tail_p) if tail_p else None)


# ---------------------------------------------------------------------------
# Process-tree accounting
# ---------------------------------------------------------------------------


def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii",
                  errors="replace") as handle:
            text = handle.read()
    except OSError:
        return None                      # exited between listdir and open
    # The command name may contain spaces and parentheses; the numeric
    # fields start after the last ")".
    return text.rsplit(")", 1)[1].split()


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (children, workers of children)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items()
                    if parent == pid)
    return tree


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields and fields[0] != "Z" and int(fields[2]) == pgid:
                members.append(int(entry))
    return members


def tree_cpu_seconds(root: Optional[int] = None) -> float:
    """User + system CPU of the live tree under ``root``, including every
    descendant its members have already reaped.  Monotone, so the delta
    over a window is the CPU the tree burned in that window."""
    ticks = 0
    for pid in process_tree(root if root is not None else os.getpid()):
        fields = _proc_stat(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17 of stat(5).
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _TICKS_PER_SECOND


def tree_peak_rss_mb(root: Optional[int] = None) -> float:
    """Largest peak resident set of any process in the tree, in MB:
    ``VmHWM`` of the live members and ``ru_maxrss`` of the reaped ones."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in process_tree(root if root is not None else os.getpid()):
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii",
                      errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak_kb / 1024.0


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> Dict[str, object]:
    """What a reader needs to judge whether two result files compare."""
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        # With PYTHONDONTWRITEBYTECODE set, every process compiles the
        # program from source: imports cost a third more.
        "dont_write_bytecode": sys.dont_write_bytecode,
    }
