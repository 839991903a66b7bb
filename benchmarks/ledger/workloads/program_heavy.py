"""``program_heavy`` — Q1 padded with irrelevant rules (Fig 10)."""

from __future__ import annotations

import random
from typing import Dict

from .base import SessionRunner

NAME = "program_heavy"
WHY = ("Q1 padded to 250 rules (Fig 10): parser, stratification, plan "
       "compilation, explorer pruning and the vetter over a large program do "
       "the work, forwarding almost none; verdicts must equal unpadded Q1's")
GOLDEN = "program_heavy"
SCENARIO = "Q1PAD"
TOTAL_RULES = 250


def build_q1pad(total_rules: int = TOTAL_RULES, pad_seed: int = 0):
    """Q1 plus per-switch policies for switches the topology does not
    have; ``pad_seed`` draws their switch ids."""
    from repro.scenarios import NDlogScenario, build_q1
    base = build_q1()
    missing = total_rules - len(base.program.rules)
    switch_ids = random.Random(pad_seed).sample(range(100, 100000), missing)
    pads = [f"pad{index} FlowTable(@Swi,Sip,Hdr,Prt) :- "
            f"PacketIn(@C,Swi,Sip,Hdr), Swi == {switch_id}, Hdr == 80, "
            f"Prt := 1." for index, switch_id in enumerate(switch_ids)]
    return NDlogScenario(
        name=SCENARIO,
        description=f"Q1 padded to {total_rules} rules",
        program_source=base.program_source + "\n" + "\n".join(pads),
        mapping=base.mapping,
        topology_factory=base.topology_factory,
        trace_factory=base.trace_factory,
        symptom=base.symptom,
        static_tuples=base.static_tuples,
        target_host=base.target_host,
        reference_repair=base.reference_repair,
        ks_threshold=base.ks_threshold)


def inputs(seed: int, smoke: bool) -> Dict[str, object]:
    return {"params": {"total_rules": 40 if smoke else TOTAL_RULES,
                       "pad_seed": seed},
            "max_candidates": 14}


def runner(knobs: Dict[str, object]) -> SessionRunner:
    from repro.api import RepairConfig
    from repro.scenarios import register_scenario
    register_scenario(SCENARIO, build_q1pad)
    config = RepairConfig.for_scenario(
        SCENARIO, params=knobs["params"],
        max_candidates=knobs["max_candidates"])
    # Worker processes cannot rebuild a scenario registered only here;
    # fabric and service probes run the unpadded program instead.
    unpadded = RepairConfig.for_scenario(
        "Q1", max_candidates=knobs["max_candidates"])
    return SessionRunner(NAME, config.to_wire(), wire_safe=unpadded.to_wire())
