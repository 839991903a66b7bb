"""Applying repair candidates to programs and base data.

Programs are values (:mod:`repro.ndlog.ast`): nothing can change one, so
nothing needs a copy of one.  Applying a candidate builds a *new*
:class:`~repro.ndlog.ast.Program` in which each rule an edit names is
replaced by an edited value (:func:`dataclasses.replace`, a new ``rules``
tuple) and every other rule is shared with the base program — the same
object, with whatever has been derived from it (its plan shape, ...)
already attached.  A repair therefore costs its edit, not the size of the
program.  The result is a :class:`RepairedProgram`: that program plus the
base tuples to insert or remove before replaying.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from ..ndlog.ast import BinOp, Const, Program, Selection
from ..ndlog.tuples import NDTuple
from .candidates import (
    AddRule,
    ChangeAssignment,
    ChangeConstant,
    ChangeOperator,
    ChangeRuleHead,
    ChangeTuple,
    CopyRule,
    DeletePredicate,
    DeleteRule,
    DeleteSelection,
    DeleteTuple,
    Edit,
    InsertTuple,
    RepairCandidate,
)


class RepairApplicationError(Exception):
    """Raised when an edit cannot be applied (e.g. unknown rule)."""


@dataclass
class RepairedProgram:
    """The outcome of applying a repair candidate."""

    program: Program
    inserted_tuples: List[NDTuple] = field(default_factory=list)
    removed_tuples: List[NDTuple] = field(default_factory=list)
    candidate: Optional[RepairCandidate] = None

    def summary(self) -> str:
        lines = [f"repaired program ({len(self.program.rules)} rules)"]
        if self.candidate is not None:
            lines.append(f"candidate: {self.candidate.description}")
        for tup in self.inserted_tuples:
            lines.append(f"  + insert {tup}")
        for tup in self.removed_tuples:
            lines.append(f"  - remove {tup}")
        return "\n".join(lines)


def apply_candidate(program: Program, candidate: RepairCandidate) -> RepairedProgram:
    """``program`` with every edit of ``candidate`` applied.

    Rules the edits do not name are shared with ``program``, not copied; a
    candidate without program edits returns ``program`` itself.
    """
    repaired = RepairedProgram(program=program, candidate=candidate)
    # Deletions of selections/predicates must be applied from the highest
    # index down so earlier deletions do not shift later indexes.
    for edit in sorted(candidate.edits, key=_deletion_sort_key):
        if isinstance(edit, InsertTuple):
            repaired.inserted_tuples.append(edit.tuple)
        elif isinstance(edit, DeleteTuple):
            repaired.removed_tuples.append(edit.tuple)
        elif isinstance(edit, ChangeTuple):
            repaired.removed_tuples.append(edit.tuple)
            repaired.inserted_tuples.append(
                edit.tuple.replace(edit.column, edit.new_value))
        else:
            repaired.program = _edited(repaired.program, edit)
    return repaired


def _deletion_sort_key(edit: Edit):
    if isinstance(edit, DeleteSelection):
        return (1, -edit.selection_index)
    if isinstance(edit, DeletePredicate):
        return (1, -edit.predicate_index)
    return (0, 0)


def _edited(program: Program, edit: Edit) -> Program:
    """``program`` with the one rule ``edit`` names replaced, removed or
    appended; a name held by several rules means the first of them."""
    if isinstance(edit, (CopyRule, AddRule)):
        return replace(program, rules=program.rules + (edit.new_rule,))
    if not isinstance(edit, _RULE_EDITS):
        raise RepairApplicationError(f"unknown edit type {type(edit).__name__}")
    try:
        position = program.rule_index(edit.rule)
    except KeyError as exc:
        raise RepairApplicationError(f"rule {edit.rule!r} not found") from exc
    rule = program.rules[position]
    if isinstance(edit, DeleteRule):
        return replace(program, rules=_splice(program.rules, position))
    if isinstance(edit, ChangeRuleHead):
        rule = replace(rule, head=edit.new_head)
    elif isinstance(edit, ChangeAssignment):
        index = _checked(rule.assignments, edit.assignment_index,
                         "assignment", edit.rule)
        rule = replace(rule, assignments=_splice(
            rule.assignments, index,
            replace(rule.assignments[index], expr=edit.new_expr)))
    elif isinstance(edit, DeletePredicate):
        index = _checked(rule.body, edit.predicate_index, "predicate",
                         edit.rule)
        if len(rule.body) <= 1:
            raise RepairApplicationError(
                f"cannot delete the only body predicate of rule {edit.rule}")
        rule = replace(rule, body=_splice(rule.body, index))
    else:
        index = _checked(rule.selections, edit.selection_index, "selection",
                         edit.rule)
        selection = rule.selections[index]
        op, left, right = selection.op, selection.left, selection.right
        if isinstance(edit, ChangeOperator):
            op = edit.new_op
        elif isinstance(edit, ChangeConstant) and edit.side == "left":
            left = Const(edit.new_value)
        elif isinstance(edit, ChangeConstant):
            right = Const(edit.new_value)
        changed = () if isinstance(edit, DeleteSelection) else (
            Selection(BinOp(op, left, right)),)
        rule = replace(rule, selections=_splice(rule.selections, index,
                                                *changed))
    return replace(program, rules=_splice(program.rules, position, rule))


#: The edits that name one existing rule (``edit.rule``).
_RULE_EDITS = (ChangeConstant, ChangeOperator, DeleteSelection,
               DeletePredicate, ChangeAssignment, ChangeRuleHead, DeleteRule)


def _splice(items: Tuple, index: int, *replacement) -> Tuple:
    """``items`` with the element at ``index`` replaced (or dropped)."""
    return items[:index] + replacement + items[index + 1:]


def _checked(items, index, what, rule_name) -> int:
    if index < 0 or index >= len(items):
        raise RepairApplicationError(
            f"{what} index {index} out of range for rule {rule_name}")
    return index
