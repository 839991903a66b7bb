"""Repair candidates and the program edits they are made of.

A repair candidate (Section 4 of the paper) is a small set of edits to the
controller program and/or its base tuples, together with a cost (the
"implausibility" of the change) and the meta provenance tree that produced
it, built when first read.  Candidates are applied to a program by
:mod:`repro.repair.apply` and evaluated by the backtesting subsystem
(:mod:`repro.backtest`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..ndlog.ast import Atom, Expression, Rule
from ..ndlog.tuples import NDTuple
from ..wire import NOT_ON_WIRE, Wire, decode, encode


_candidate_counter = itertools.count(1)


def reset_candidate_ids(start: int = 1) -> None:
    """Restart the process-global candidate numbering at ``start``.

    The explorer numbers its candidates from a counter of each
    exploration's own, so a session's tags never depend on this one.  It
    numbers candidates built by hand (``RepairCandidate``'s default id),
    and a caller that builds such candidates restarts it to number them
    as a fresh process would.
    """
    global _candidate_counter
    _candidate_counter = itertools.count(start)


def next_candidate_id() -> int:
    """Draw the next candidate id from the process-global counter: the
    default id of a candidate built by hand."""
    return next(_candidate_counter)


def edits_signature(edits: Sequence[Edit]) -> Tuple:
    """Structural signature of an edit set, used for de-duplication across
    search paths."""
    return tuple(sorted(repr(e) for e in edits))


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------


class Edit:
    """Base class for a single program or data change (a tagged union on the
    wire: each subclass carries the ``kind`` the cost model prices)."""

    kind = "edit"

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.describe()


@dataclass(frozen=True)
class ChangeConstant(Edit):
    """Change a constant inside a selection predicate.

    ``side`` is ``"left"`` or ``"right"``, naming which operand of the
    comparison holds the constant.
    """

    rule: str
    selection_index: int
    side: str
    old_value: object
    new_value: object

    kind = "change_constant"

    def describe(self):
        return (f"change constant {self.old_value!r} to {self.new_value!r} "
                f"in selection #{self.selection_index} of rule {self.rule}")


@dataclass(frozen=True)
class ChangeOperator(Edit):
    """Change the comparison operator of a selection predicate."""

    rule: str
    selection_index: int
    old_op: str
    new_op: str

    kind = "change_operator"

    def describe(self):
        return (f"change operator {self.old_op!r} to {self.new_op!r} "
                f"in selection #{self.selection_index} of rule {self.rule}")


@dataclass(frozen=True)
class DeleteSelection(Edit):
    """Delete a selection predicate from a rule."""

    rule: str
    selection_index: int
    text: str = ""

    kind = "delete_selection"

    def describe(self):
        what = self.text or f"selection #{self.selection_index}"
        return f"delete {what} in rule {self.rule}"


@dataclass(frozen=True)
class ChangeAssignment(Edit):
    """Replace the expression assigned to a head variable."""

    rule: str
    assignment_index: int
    var: str
    old_text: str
    new_expr: Expression

    kind = "change_assignment"

    def describe(self):
        return (f"change assignment {self.var} := {self.old_text} to "
                f"{self.var} := {self.new_expr.to_ndlog()} in rule {self.rule}")


@dataclass(frozen=True)
class ChangeRuleHead(Edit):
    """Re-target the head of an existing rule (table and/or arguments)."""

    rule: str
    new_head: Atom

    kind = "change_head"

    def describe(self):
        return f"change head of rule {self.rule} to {self.new_head.to_ndlog()}"


@dataclass(frozen=True)
class CopyRule(Edit):
    """Add a copy of an existing rule with modifications already applied."""

    source_rule: str
    new_rule: Rule

    kind = "copy_rule"

    def describe(self):
        return (f"copy rule {self.source_rule} and replace it with "
                f"{self.new_rule.to_ndlog()}")


@dataclass(frozen=True)
class InsertTuple(Edit):
    """Manually insert a base tuple (e.g. manually install a flow entry)."""

    tuple: NDTuple

    kind = "insert_tuple"

    def describe(self):
        return f"manually insert {self.tuple}"


# ---------------------------------------------------------------------------
# Repair candidates
# ---------------------------------------------------------------------------


@dataclass
class RepairCandidate(Wire):
    """A complete candidate repair: one or more edits plus bookkeeping.

    A :mod:`repro.wire` type without its ``explanation``: workers only
    evaluate, and the scheduler re-attaches its own copy when results
    stream back.  Equality reads the edits and bookkeeping only.
    """

    wire_name = "candidate"

    edits: Tuple[Edit, ...]
    cost: float
    description: str = ""
    #: What the explorer made this candidate from
    #: (:class:`~repro.meta.explorer.Explanation`), ``None`` for one built
    #: by hand or decoded from a wire.
    explanation: object = field(default=None, metadata=NOT_ON_WIRE,
                                compare=False, repr=False)
    candidate_id: int = field(default_factory=next_candidate_id)
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.edits, tuple):
            self.edits = tuple(self.edits)
        if not self.description:
            self.description = "; ".join(e.describe() for e in self.edits)

    @property
    def tree(self):
        """The :class:`~repro.meta.forest.MetaTree` explaining this
        candidate, built on first read (the same tree on every read and in
        its exploration's forest); ``None`` without an explanation."""
        explanation = self.explanation
        return None if explanation is None else explanation.tree()

    @property
    def tag(self) -> str:
        """Short identifier naming the candidate in spans, events and
        tables."""
        return f"v{self.candidate_id}"

    def signature(self) -> Tuple:
        return edits_signature(self.edits)

    def __str__(self):
        return f"[cost {self.cost:.2f}] {self.description}"


def candidate_to_wire(candidate: RepairCandidate) -> Dict:
    """A candidate's wire: its edits and bookkeeping, not its
    ``explanation``."""
    return encode(candidate)


def candidate_from_wire(wire: Dict) -> RepairCandidate:
    """A worker-side candidate (same edits, id and tag; no tree)."""
    return decode(RepairCandidate, wire)


def deduplicate(candidates: Sequence[RepairCandidate]) -> List[RepairCandidate]:
    """Drop candidates with identical edit sets, keeping the cheapest."""
    best = {}
    for candidate in candidates:
        key = candidate.signature()
        if key not in best or candidate.cost < best[key].cost:
            best[key] = candidate
    return sorted(best.values(), key=lambda c: (c.cost, c.candidate_id))
