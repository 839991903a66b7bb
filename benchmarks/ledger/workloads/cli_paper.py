"""``cli_paper`` — the five paper case studies, each a fresh CLI process."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from typing import Dict, List

from .base import Op, Runner, timed_op

NAME = "cli_paper"
WHY = ("what the paper's operator pays per query (Fig 9a): a fresh `python "
       "-m repro repair qN` where interpreter, imports, parse, scenario "
       "build and a cold plan cache do most of the work and replay little")
GOLDEN = "cli_paper"

QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5")
#: Q1 runs with the candidate budget of the paper's Table 1/2.
EXTRA_ARGS = {"Q1": ["--max-candidates", "14"]}
OP_TIMEOUT_SECONDS = 60.0
#: Passes drawn per run; a window never needs more.
PASSES = 64


def inputs(seed: int, smoke: bool) -> Dict[str, object]:
    rng = random.Random(seed)
    order: List[str] = []
    for _ in range(PASSES):
        order.extend(rng.sample(QUERIES, len(QUERIES)))
    return {"order": order}


def paper_config(query: str) -> Dict[str, object]:
    """The config wire `repro repair <query>` runs with ``EXTRA_ARGS``."""
    from repro.api import RepairConfig
    knobs = {"max_candidates": 14} if query == "Q1" else {}
    return RepairConfig.for_scenario(query, **knobs).to_wire()


def repair_command(query: str) -> List[str]:
    return [sys.executable, "-m", "repro", "repair", query, "--json",
            "--quiet", *EXTRA_ARGS.get(query, [])]


class CliRunner(Runner):
    """One op is one query in its own process; the queries come in whole
    passes over the five case studies, so every run sees the same mix."""

    own_label = "Q1"
    ops_per_batch = len(QUERIES)

    def __init__(self, knobs: Dict[str, object]):
        self.order = knobs["order"]

    def probe_configs(self):
        return paper_config("Q1"), paper_config("Q1")

    def golden_configs(self) -> Dict[str, Dict[str, object]]:
        return {query: paper_config(query) for query in QUERIES}

    def _query(self, query: str) -> Dict:
        done = subprocess.run(repair_command(query), capture_output=True,
                              timeout=OP_TIMEOUT_SECONDS, env=os.environ)
        if done.returncode != 0:
            raise RuntimeError(f"repro repair {query} exited "
                               f"{done.returncode}: {done.stderr[-300:]!r}")
        return json.loads(done.stdout)

    def run_op(self, index: int) -> Op:
        query = self.order[index % len(self.order)]
        return timed_op(query, lambda: self._query(query))


def runner(knobs: Dict[str, object]) -> CliRunner:
    return CliRunner(knobs)
