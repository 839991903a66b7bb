"""A candidate's meta provenance tree is built when someone reads it.

The explorer records, per emitted candidate, what its tree is made from —
not the candidate — and ``candidate.tree`` builds it on first read (the
first-read and forest identities are in ``test_explore_golden.py``).  What
is checked here: a candidate whose tree nobody read travels as before, on
the wire and through a pickle, and building trees lazily leaves no reference
cycle behind an exploration.
"""

import gc
import json
import pickle
import weakref

import pytest

from repro.meta import MetaProvenanceExplorer
from repro.repair import candidate_from_wire, candidate_to_wire
from repro.scenarios import build_scenario


@pytest.fixture(scope="module")
def q1():
    scenario = build_scenario("Q1")
    return scenario, scenario.history_index()


def explore(q1):
    scenario, history = q1
    return MetaProvenanceExplorer(
        scenario.program, history,
        max_candidates=14).explore_missing(scenario.goal())


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_an_unread_tree_travels_as_before(q1):
    for candidate in explore(q1).candidates:
        wire = json.dumps(candidate_to_wire(candidate))
        copy = pickle.loads(pickle.dumps(candidate))
        assert candidate.explanation._tree is None      # nothing built
        assert copy == candidate
        assert json.dumps(candidate_to_wire(copy)) == wire
        assert candidate_from_wire(json.loads(wire)) == candidate
        # Reading the tree changes neither the wire nor what the copy reads.
        text = candidate.tree.to_text()
        assert json.dumps(candidate_to_wire(candidate)) == wire
        assert copy.tree.to_text() == text and copy.tree is not candidate.tree


def test_an_exploration_leaves_no_reference_cycle(q1, collector_off):
    scenario, history = q1
    explorer = MetaProvenanceExplorer(scenario.program, history,
                                      max_candidates=14)
    result = explorer.explore_missing(scenario.goal())
    unread, read = result.candidates[:2]
    tree, forest = read.tree, result.forest
    alive = [weakref.ref(value)
             for value in (explorer, result, unread, read, tree, forest)]
    del explorer, result, unread, read, tree, forest
    assert [ref() for ref in alive] == [None] * len(alive)
