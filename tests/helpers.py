"""Lookups the suites use and no repair runs.

Each was a method of a ``src/repro`` class whose last caller outside the
tests went with a deleted mechanism; they live here, beside the other
shared test modules, which any suite imports by module name (``tests/`` is
on ``sys.path``, see ``conftest.py``).
"""

from repro.meta.costs import DEFAULT_COSTS, DEFAULT_CUTOFF, CostModel
from repro.ndlog.tuples import NDTuple


def rule_named(program, name):
    """The first rule of ``program`` called ``name`` (``KeyError``)."""
    return program.rules[program.rule_index(name)]


def derived_tables(program):
    """The tables some rule of ``program`` derives."""
    return {rule.head.table for rule in program.rules}


def base_tables(program):
    """The tables ``program`` reads but never derives (only inserted)."""
    return {atom.table for rule in program.rules
            for atom in rule.body} - derived_tables(program)


def history_tables(history):
    """The tables of a ``HistoryIndex`` with a tuple, in first-seen order."""
    return list(history._by_table)


def replace_value(tup, index, value):
    """A copy of an ``NDTuple`` with one value replaced."""
    values = list(tup.values)
    values[index] = value
    return NDTuple(tup.table, tuple(values))


def edit_kinds(candidate):
    """The kinds of a candidate's edits, in edit order."""
    return tuple(edit.kind for edit in candidate.edits)


class UniformCostModel(CostModel):
    """A cost model where every edit costs the same, a far constant change
    included: with it, implausible repairs (copying a rule, re-targeting a
    head) are explored as eagerly as constant tweaks."""

    def edit_cost(self, edit):
        return self.costs[edit.kind]


def uniform_cost_model(cost=1.0, cutoff=DEFAULT_CUTOFF * 2):
    """A :class:`UniformCostModel` pricing every edit at ``cost``."""
    return UniformCostModel(costs={kind: cost for kind in DEFAULT_COSTS},
                            cutoff=cutoff)
