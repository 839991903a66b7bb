"""``trace_heavy`` — few candidates, each replayed over a long trace."""

from __future__ import annotations

import random
from typing import Dict

from .base import SessionRunner

NAME = "trace_heavy"
WHY = ("Fig 9b/9c regime: 14 candidates x a 2.9k-packet trace, so data-plane "
       "forwarding and replay do the work and explorer/parser work does not")
GOLDEN = "trace_heavy"

#: (s1_clients, s4_clients) variants the seed draws from.  One s1 client
#: sends 4 packets per repetition and one s4 client 6, so trading three
#: of one for two of the other keeps the trace at 288 packets per
#: repetition: the seed changes which hosts talk, not how much work an op
#: is, and runs at different seeds stay comparable.
SIZES = ((48, 16), (45, 18), (51, 14))
REPETITIONS = 10


def inputs(seed: int, smoke: bool) -> Dict[str, object]:
    s1_clients, s4_clients = (SIZES[0] if seed == 0
                              else random.Random(seed).choice(SIZES))
    if smoke:                            # Q1's default size
        return {"params": {"s1_clients": 12, "s4_clients": 4,
                           "repetitions": 3}, "max_candidates": 14}
    return {"params": {"s1_clients": s1_clients, "s4_clients": s4_clients,
                       "repetitions": REPETITIONS}, "max_candidates": 14}


def config_wire(knobs: Dict[str, object], **extra) -> Dict[str, object]:
    from repro.api import RepairConfig
    return RepairConfig.for_scenario(
        "Q1", params=knobs["params"],
        max_candidates=knobs["max_candidates"], **extra).to_wire()


def runner(knobs: Dict[str, object]) -> SessionRunner:
    return SessionRunner(NAME, config_wire(knobs))
