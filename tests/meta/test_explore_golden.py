"""What an exploration returns, and how much it builds to return it.

The report goldens pin which repairs are found and accepted; they cannot see
the *explanation* attached to each candidate, nor how many explanations were
built on the way.  ``explore_golden.json`` holds, for Q1-Q5 at
``max_candidates=14``, Q1 at 100 and Q1 padded to 250 rules, every returned
candidate's tag, cost, description, edit kinds and meta provenance tree
(``tree.to_text()``; Q1 at 100 stores a sha1 per tree to keep the file
small).  It was dumped from the explorer that built one tree per *attempt*
(the commit before trees were built on emission), under ``PYTHONHASHSEED`` 0
and 3, and differs from that dump only in Q4's four retargeting trees: their
root now keeps the goal's column positions (``PacketOut(8, '*', '*', '*')``
under the retargeted rule's name, where it read ``PacketOut(8)``) and they
gained the ``EXIST Tuple`` children the retargeted rule fired on.  It is
regenerated with

    PYTHONPATH=src python tests/meta/test_explore_golden.py \\
        > tests/meta/explore_golden.json

Three things no golden states follow it: every returned candidate carries a
completed tree; an exploration constructs no tree until one is read, and
then one per candidate, the same object on every read and in the forest;
and the only values it asks for
(``constant_values.first_satisfying_value``) are a constant's new ones.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.api import RepairConfig, RepairSession
from repro.meta import MetaProvenanceExplorer, MissingTupleGoal
from repro.meta import explorer as explorer_module
from repro.meta import forest as forest_module
from repro.repair import reset_candidate_ids
from repro.scenarios import build_scenario

from padded_programs import padded_program
from helpers import edit_kinds

GOLDEN_PATH = pathlib.Path(__file__).with_name("explore_golden.json")
PADDED_RULES = 250

#: golden key -> (scenario, max_candidates, total rules or None for unpadded)
CONFIGURATIONS = {
    "Q1": ("Q1", 14, None), "Q2": ("Q2", 14, None), "Q3": ("Q3", 14, None),
    "Q4": ("Q4", 14, None), "Q5": ("Q5", 14, None),
    "Q1@100": ("Q1", 100, None),
    "Q1PAD250": ("Q1", 14, PADDED_RULES),
}
HASHED_TREES = ("Q1@100",)


def explore(key):
    name, max_candidates, total_rules = CONFIGURATIONS[key]
    scenario = build_scenario(name)
    program = (scenario.program if total_rules is None
               else padded_program(scenario, total_rules))
    explorer = MetaProvenanceExplorer(program, scenario.history_index(),
                                      max_candidates=max_candidates)
    reset_candidate_ids()
    return explorer.explore_missing(scenario.goal())


def dump(key):
    rows = []
    for candidate in explore(key).candidates:
        row = {"tag": candidate.tag, "cost": candidate.cost,
               "description": candidate.description,
               "edit_kinds": list(edit_kinds(candidate))}
        text = candidate.tree.to_text()
        if key in HASHED_TREES:
            row["tree_sha1"] = hashlib.sha1(text.encode()).hexdigest()
        else:
            row["tree"] = text.split("\n")
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_configuration(golden):
    assert sorted(golden) == sorted(CONFIGURATIONS)


@pytest.mark.parametrize("key", sorted(CONFIGURATIONS))
def test_exploration_reproduces_the_golden(golden, key):
    rows = dump(key)
    assert [row["tag"] for row in rows] == [row["tag"] for row in golden[key]]
    for row, expected in zip(rows, golden[key]):
        assert row == expected, row["tag"]


@pytest.mark.parametrize("key", sorted(CONFIGURATIONS))
def test_every_returned_candidate_is_explained(key):
    result = explore(key)
    assert result.candidates
    for candidate in result.candidates:
        assert candidate.tree is not None and candidate.tree.completed, \
            candidate.description


def test_every_root_keeps_the_goals_column_positions():
    """A goal with a gap, on a table no rule derives: the manual insertion
    and the retargeted rules (which used to be explained under
    ``Nowhere(8, 80)``) all sit under ``Nowhere(8, '*', 80, ...)``."""
    scenario = build_scenario("Q4")
    goal = MissingTupleGoal.create("Nowhere", {0: 8, 2: 80})
    result = MetaProvenanceExplorer(
        scenario.program, scenario.history_index()).explore_missing(goal)
    assert {"insert_tuple", "change_head", "copy_rule"} == {
        kind for c in result.candidates for kind in edit_kinds(c)}
    for candidate in result.candidates:
        root = candidate.tree.root.subject.tuple
        assert root.values[:3] == (8, "*", 80), candidate.tree.to_text()


@pytest.mark.parametrize("key", ["Q1", "Q1PAD250"])
def test_a_tree_is_built_on_first_read(monkeypatch, key):
    built = []

    class CountedTree(forest_module.MetaTree):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(forest_module, "MetaTree", CountedTree)
    result = explore(key)
    assert len(result.candidates) == 14 and built == []
    trees = [candidate.tree for candidate in result.candidates]
    assert len(built) == 14
    assert all(candidate.tree is tree
               for candidate, tree in zip(result.candidates, trees))
    assert len(result.forest) == len(result.candidates) == len(built)
    assert {id(tree) for tree in result.forest} == {id(t) for t in built}


def test_only_constant_repairs_ask_for_a_value(monkeypatch):
    """Who calls ``first_satisfying_value``, and that the statistics and
    Figure 9a's "constraint solving" phase count and time exactly those
    calls: two on Q1, none on Q5."""
    callers = []
    first_satisfying_value = explorer_module.first_satisfying_value

    def recording(*args):
        # Frame 1 is the helper that counts and times; frame 2 asked.
        callers.append(sys._getframe(2).f_code.co_name)
        return first_satisfying_value(*args)

    monkeypatch.setattr(explorer_module, "first_satisfying_value", recording)
    for name, expected in (("Q1", ["_constant_repair_values"] * 2), ("Q5", [])):
        del callers[:]
        session = RepairSession(RepairConfig.for_scenario(name, max_candidates=14))
        session.run(until="generate")
        assert callers == expected, name
        stats = session.exploration.stats
        assert stats.solver_invocations == len(expected), name
        solving = session.timings().constraint_solving
        assert (solving > 0) if expected else (solving == 0.0), name


if __name__ == "__main__":
    json.dump({key: dump(key) for key in CONFIGURATIONS}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
