"""Paper-table goldens: what the debugger finds for Q1-Q5 and Table 3.

``paper_tables.json`` pins, per scenario, the candidate list in cost order
with each row's ``effective`` / ``accepted`` verdict and KS statistic
(Tables 2 and 6), the generated / surviving counts (Tables 1 and 3), and
where the paper's reference repair lands among the accepted suggestions.
Q1-Q5 run at ``max_candidates=14``, the setting of the paper's tables.

Reports are a pure function of (config, scenario), so every table is
computed in a fresh interpreter under two ``PYTHONHASHSEED`` values (the
seed is fixed at start-up) and must equal the golden under both.

An intended change to what is found is re-pinned with

    PYTHONPATH=src python tests/scenarios/test_paper_tables.py \\
        > tests/scenarios/paper_tables.json
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN_PATH = pathlib.Path(__file__).with_name("paper_tables.json")
HASH_SEEDS = (0, 3)

#: The candidate that realises the paper's repair: the one each Q1-Q5
#: scenario names in prose as ``reference_repair`` and, for the two
#: Table 3 front ends, the re-targeting of the copied branch to switch 3.
REFERENCE_CANDIDATES = {
    "Q1": "change constant 2 to 3 in selection #0 of rule r7",
    "Q2": "change constant 6 to 7 in selection #2 of rule q2c",
    "Q3": "change constant 3 to 2 in selection #2 of rule q3fw",
    "Q4": ("copy rule q4http and replace it with q4http_copy "
           "PacketOut(@Swi, Sip, Hdr, Prt) :- PacketIn(@C, Swi, Sip, Hdr), "
           "Swi == 8, Hdr == 80, Prt := 1."),
    "Q5": "change assignment Hip := * to Hip := Sip in rule f1",
    "trema": "change constant 2 to 3 in condition (packet.switch == 2) at 2",
    "pyretic": ("change match switch=2 to switch=3 in "
                "match(dst_port=80, switch=2)"),
}


def _row(description, cost, effective, accepted, ks):
    return {"description": description, "cost": round(cost, 6),
            "effective": effective, "accepted": accepted, "ks": round(ks, 6)}


def _table(name, reference_repair, rows):
    """One scenario's golden from its rows in report order.  The reference
    rank is 1-based among the accepted rows, which is the order suggestions
    are presented in."""
    accepted = [row["description"] for row in rows if row["accepted"]]
    reference = REFERENCE_CANDIDATES[name]
    return {
        "generated": len(rows),
        "surviving": len(accepted),
        "reference_repair": reference_repair,
        "reference_candidate": reference,
        "reference_rank": accepted.index(reference) + 1,
        "candidates": rows,
    }


def measured_tables():
    from repro.api import RepairConfig, RepairSession
    from repro.scenarios import SCENARIO_BUILDERS, build_scenario
    from repro.scenarios.other_languages import (ImperativeQ1Scenario,
                                                 PolicyQ1Scenario)
    tables = {}
    for name in sorted(SCENARIO_BUILDERS):
        scenario = build_scenario(name)
        report = RepairSession(RepairConfig(max_candidates=14),
                               scenario=scenario).run()
        tables[name] = _table(name, scenario.reference_repair, [
            _row(r.candidate.description, r.candidate.cost, r.effective,
                 r.accepted, r.ks.statistic) for r in report.backtest.results])
        assert report.counts() == (tables[name]["generated"],
                                   tables[name]["surviving"])
    for name, scenario_class in (("trema", ImperativeQ1Scenario),
                                 ("pyretic", PolicyQ1Scenario)):
        report = scenario_class().diagnose()
        tables[name] = _table(name, None, [
            _row(r.description, r.cost, r.effective, r.accepted,
                 r.ks_statistic) for r in report.results])
        assert (report.generated, report.accepted) == (
            tables[name]["generated"], tables[name]["surviving"])
    return tables


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def measured():
    """Hash seed -> tables, each computed once in a fresh interpreter."""
    import repro
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    cache = {}

    def get(hash_seed):
        if hash_seed not in cache:
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=os.pathsep.join(
                           [source_root, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, __file__], env=env,
                                 check=True, capture_output=True,
                                 timeout=120).stdout
            cache[hash_seed] = json.loads(out)
        return cache[hash_seed]

    return get


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("name", sorted(REFERENCE_CANDIDATES))
def test_table_matches_golden(golden, measured, name, hash_seed):
    found, pinned = measured(hash_seed)[name], golden[name]
    costs = [row["cost"] for row in found["candidates"]]
    assert costs == sorted(costs), "candidates are not in cost order"
    # The rows first, so a failure names the candidate whose verdict moved.
    assert found["candidates"] == pinned["candidates"]
    assert found == pinned


def _dumps(tables):
    """JSON with one candidate per line: a verdict that moves is a one-line
    diff of the golden."""
    entries = []
    for name, table in tables.items():
        fields = [f"  {json.dumps(key)}: {json.dumps(value)}"
                  for key, value in table.items() if key != "candidates"]
        rows = ",\n".join(f"   {json.dumps(row)}"
                          for row in table["candidates"])
        fields.append(f'  "candidates": [\n{rows}\n  ]')
        entries.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields)
                       + "\n }")
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(_dumps(measured_tables()))
