"""The correctness gate: every report is checked against pinned goldens.

``expected/<file>.json`` maps a config label to its golden:

* ``verdicts`` — the ordered ``[description, effective, accepted]`` list,
  which holds at every seed (the seed never changes what is repaired);
* ``digests`` — per pinned seed, the sha1 of the report wire minus
  ``timings`` (the only field that is not a pure function of the config).

Workloads that must agree share one golden: ``fabric_spawn`` is checked
against ``trace_heavy``'s file and ``service_q1`` against ``cli_paper``'s
Q1 entry, so a fabric or service report that drifts from the serial
in-process one is a miss.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

#: Seeds whose full report digests are pinned.
PINNED_SEEDS = (0, 1)

#: The paper's reference repair for Q1 (Table 2, candidate A) as this
#: repository words it; it must be among Q1's accepted repairs.
Q1_REFERENCE_REPAIR = "change constant 2 to 3 in selection #0 of rule r7"


def stable_wire(report_wire: Dict) -> Dict:
    """The report wire minus its wall-clock ``timings``."""
    return {k: v for k, v in report_wire.items() if k != "timings"}


def digest(report_wire: Dict) -> str:
    text = json.dumps(stable_wire(report_wire), sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def verdicts(report_wire: Dict) -> List[List[object]]:
    return [[r["description"], r["effective"], r["accepted"]]
            for r in report_wire["results"]]


def golden_entry(report_wire: Dict) -> Dict[str, object]:
    """What ``--update-expected`` pins for one (label, seed) report."""
    return {"verdicts": verdicts(report_wire), "digest": digest(report_wire)}


def load(file_name: str) -> Dict[str, Dict]:
    path = EXPECTED_DIR / f"{file_name}.json"
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check(expected: Dict[str, Dict], label: str, seed: int,
          report_wire: Dict, pinned: bool = True) -> List[str]:
    """Problems with one report (empty = it matches its golden).

    ``pinned=False`` skips the digest: smoke-sized configs share the
    verdict lists but not the trace sizes the digests were taken at.
    """
    golden = expected.get(label)
    if golden is None:
        return [f"{label}: no golden pinned"]
    problems: List[str] = []
    got, want = verdicts(report_wire), golden["verdicts"]
    if got != want:
        problems.append(f"{label}: verdict list differs from golden")
        for index in range(max(len(got), len(want))):
            g = got[index] if index < len(got) else None
            w = want[index] if index < len(want) else None
            if g != w:
                problems.append(f"  #{index}: got {g!r}, want {w!r}")
    want_digest = golden.get("digests", {}).get(str(seed))
    if pinned and want_digest is not None and digest(report_wire) != want_digest:
        problems.append(f"{label}: report digest {digest(report_wire)} != "
                        f"golden {want_digest} at seed {seed}")
    return problems
