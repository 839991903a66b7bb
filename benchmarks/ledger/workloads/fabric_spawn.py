"""``fabric_spawn`` — exactly ``trace_heavy``, through the spawn fabric."""

from __future__ import annotations

from typing import Dict

from . import trace_heavy
from .base import SessionRunner

NAME = "fabric_spawn"
WHY = ("same candidates as trace_heavy through distrib (worker spawn, job "
       "wire, frames, queue wait), so the ratio of the two turnarounds is "
       "the fabric's price; reports must be bit-identical")
#: Checked against the serial workload's goldens, not its own.
GOLDEN = trace_heavy.GOLDEN
PARALLEL = True
WORKERS = 2

inputs = trace_heavy.inputs


def runner(knobs: Dict[str, object]) -> SessionRunner:
    return SessionRunner(
        trace_heavy.NAME,
        trace_heavy.config_wire(knobs, transport="spawn", workers=WORKERS))
