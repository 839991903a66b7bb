"""The vetter's inert-insert proof as it stood before the closed-world model
was one, kept verbatim as a differential oracle for
:func:`repro.analysis.constprop.insert_inert`.  Never edit it to make a
difference go away.

Besides guard and wildcard-join reasoning it searched joins with
*statically enumerable* tables (tables no rule derives and no event
populates, whose extent is the set-up tuples) and trusted a clean static
column never to hold ``'*'``.  No verdict of a repair session needed that
search, and the check that replaced it has none; the differential compares
the two wherever the search refutes nothing.  It evaluates ``/`` and ``%``
selections, which the replacement leaves to the replay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ndlog.ast import (
    Atom, Const, Expression, FuncCall, Program, Rule, Var, WILDCARD,
)
from repro.ndlog.errors import EvaluationError
from repro.ndlog.expr import evaluate
from repro.ndlog.tuples import NDTuple, TableSchema


def _contains_call(expr: Expression) -> bool:
    if isinstance(expr, FuncCall):
        return True
    left = getattr(expr, "left", None)
    right = getattr(expr, "right", None)
    return any(_contains_call(sub) for sub in (left, right) if sub is not None)


class ConstantPropagation:
    """Constant propagation over one program plus its static base data."""

    def __init__(self, program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 static_tuples: Sequence[NDTuple] = (),
                 event_tables: Iterable[str] = (),
                 flow_table: Optional[str] = None,
                 closed_world: bool = True):
        self.program = program
        self.schemas = schemas or {}
        self.event_tables = set(event_tables)
        self.flow_table = flow_table
        #: Under the closed-world assumption, ``static_tuples`` is the
        #: *complete* extent of every non-derived, non-event table (true for
        #: controllers, whose only base insertions are their static setup
        #: tuples).  Callers that may insert base tuples at runtime must
        #: pass ``closed_world=False``, which disables static-join
        #: enumeration and falls back to guard/shape reasoning only.
        self.closed_world = closed_world
        self._extent: Dict[str, List[NDTuple]] = {}
        for tup in static_tuples:
            self._extent.setdefault(tup.table, []).append(tup)
        self._derived: Set[str] = {rule.head.table for rule in program.rules}
        self._occurrences: Dict[str, List[Tuple[Rule, int]]] = {}
        for rule in program.rules:
            for index, atom in enumerate(rule.body):
                self._occurrences.setdefault(atom.table, []).append(
                    (rule, index))

    # ------------------------------------------------------------------
    # Table classification
    # ------------------------------------------------------------------

    def enumerable(self, table: str) -> bool:
        """Is the table's full runtime extent known statically?

        True for tables that no rule derives and no event populates: their
        contents are exactly the static setup tuples (possibly none).
        Requires the closed-world assumption.
        """
        return (self.closed_world and table not in self._derived
                and table not in self.event_tables)

    def extent(self, table: str) -> List[NDTuple]:
        return self._extent.get(table, [])

    def never_wildcard(self, table: str, column: int) -> bool:
        """Can a tuple of ``table`` provably never carry ``'*'`` at
        ``column``?  Event tuples are built from concrete packet data
        (axiom); enumerable tables are checked tuple by tuple."""
        if table in self.event_tables:
            return True
        if self.enumerable(table):
            return all(tup.values[column] != WILDCARD
                       for tup in self.extent(table)
                       if column < len(tup.values))
        return False

    # ------------------------------------------------------------------
    # Occurrence-level reasoning
    # ------------------------------------------------------------------

    @staticmethod
    def _match_atom(atom: Atom, values: Tuple,
                    bindings: Dict[str, object]) -> Optional[Dict[str, object]]:
        """Strict engine-style match of ``values`` against ``atom``."""
        if len(atom.args) != len(values):
            return None
        new = dict(bindings)
        for column, arg in enumerate(atom.args):
            value = values[column]
            if isinstance(arg, Const):
                if value != arg.value:
                    return None
            elif isinstance(arg, Var):
                existing = new.get(arg.name, _MISSING)
                if existing is _MISSING:
                    new[arg.name] = value
                elif existing != value:
                    return None
            else:
                # Complex expression argument: evaluate when fully bound,
                # otherwise assume it could match.
                try:
                    computed = evaluate(arg, new)
                except EvaluationError:
                    continue
                if computed != value:
                    return None
        return new

    def _guard_refuted(self, rule: Rule, bindings: Dict[str, object]) -> bool:
        """Does a selection definitively fail under these bindings?

        Mirrors the engine's pushable-guard semantics: selections touching
        assigned variables wait for the assignment, selections that raise
        are deferred ("might fire"), function calls are never evaluated
        statically (they may be stateful).
        """
        assigned = {assignment.var for assignment in rule.assignments}
        for selection in rule.selections:
            vars_ = selection.variables()
            if vars_ & assigned:
                continue
            if not vars_ <= bindings.keys():
                continue
            if _contains_call(selection.expr):
                continue
            try:
                ok = evaluate(selection.expr, bindings)
            except EvaluationError:
                continue
            if not ok:
                return True
        return False

    def _wildcard_join_refuted(self, rule: Rule, skip_index: int,
                               bindings: Dict[str, object]) -> bool:
        """A ``'*'`` binding can never strictly unify with a column that is
        provably wildcard-free (event tuples, clean static tables)."""
        for index, atom in enumerate(rule.body):
            if index == skip_index:
                continue
            for column, arg in enumerate(atom.args):
                if (isinstance(arg, Var)
                        and bindings.get(arg.name) == WILDCARD
                        and self.never_wildcard(atom.table, column)):
                    return True
        return False

    def _static_join_refuted(self, rule: Rule, skip_index: int,
                             bindings: Dict[str, object]) -> bool:
        """Propagate the bindings through every statically enumerable body
        atom; refuted when no combination of static tuples is consistent."""
        enum_atoms = [atom for index, atom in enumerate(rule.body)
                      if index != skip_index
                      and self.enumerable(atom.table)]
        if not enum_atoms:
            return False

        def search(position: int, env: Dict[str, object]) -> bool:
            if position == len(enum_atoms):
                return True
            atom = enum_atoms[position]
            for tup in self.extent(atom.table):
                extended = self._match_atom(atom, tup.values, env)
                if extended is None:
                    continue
                if self._guard_refuted(rule, extended):
                    continue
                if search(position + 1, extended):
                    return True
            return False

        return not search(0, dict(bindings))

    def occurrence_ruled_out(self, rule: Rule, atom_index: int,
                             values: Tuple) -> Optional[str]:
        """Why can ``values`` never fire ``rule`` at body position
        ``atom_index``?  ``None`` when the occurrence might fire."""
        atom = rule.body[atom_index]
        bindings = self._match_atom(atom, values, {})
        if bindings is None:
            return "shape-mismatch"
        if self._guard_refuted(rule, bindings):
            return "guard-refuted"
        if self._wildcard_join_refuted(rule, atom_index, bindings):
            return "join-impossible"
        if self._static_join_refuted(rule, atom_index, bindings):
            return "join-impossible"
        return None

    # ------------------------------------------------------------------
    # Tuple inertness
    # ------------------------------------------------------------------

    def tuple_inert_reason(self, table: str, values: Tuple) -> Optional[str]:
        """Why a tuple of ``table`` with these values can make no rule fire
        (``"unconsumed-table"``, ``"join-impossible"``, ``"guard-refuted"``
        or ``"shape-mismatch"``), or ``None`` when it might."""
        occurrences = self._occurrences.get(table, [])
        if not occurrences:
            return "unconsumed-table"
        reasons = []
        for rule, atom_index in occurrences:
            reason = self.occurrence_ruled_out(rule, atom_index, values)
            if reason is None:
                return None
            reasons.append(f"{rule.name}:{reason}")
        if any(reason.endswith("join-impossible") for reason in reasons):
            return "join-impossible"
        if any(reason.endswith("guard-refuted") for reason in reasons):
            return "guard-refuted"
        return "shape-mismatch"

    # ------------------------------------------------------------------
    # Insert inertness (candidate vetting)
    # ------------------------------------------------------------------

    def _may_derive_matching(self, table: str, values: Tuple,
                             columns: Iterable[int]) -> bool:
        """Could some rule derive a tuple of ``table`` agreeing with
        ``values`` on ``columns``?  Conservative: unknown head columns
        (plain variables) are assumed to match."""
        for rule in self.program.rules:
            if rule.head.table != table:
                continue
            if len(rule.head.args) != len(values):
                continue
            assigned_const = {
                assignment.var: assignment.expr.value
                for assignment in rule.assignments
                if isinstance(assignment.expr, Const)}
            compatible = True
            for column in columns:
                arg = rule.head.args[column]
                if isinstance(arg, Const):
                    if arg.value != values[column]:
                        compatible = False
                        break
                elif isinstance(arg, Var) and arg.name in assigned_const:
                    if assigned_const[arg.name] != values[column]:
                        compatible = False
                        break
                # otherwise: unknown, assume it can match
            if compatible:
                return True
        return False

    def insert_inert(self, tup: NDTuple) -> Optional[str]:
        """Reason why inserting ``tup`` at setup is provably behaviour-
        preserving, or ``None`` when it might have an effect."""
        if self.flow_table is not None and tup.table == self.flow_table:
            return None     # flow tuples are pushed to switches at on_start
        reason = self.tuple_inert_reason(tup.table, tup.values)
        if reason is None:
            return None
        # A rule deriving exactly this tuple at runtime would find it already
        # present — the derivation delta (and hence the emitted messages)
        # could differ from the un-inserted run.
        if self._may_derive_matching(tup.table, tup.values,
                                     range(len(tup.values))):
            return None
        schema = self.schemas.get(tup.table)
        if schema is not None and schema.primary_key:
            key_columns = schema.key_indexes()
            # Colliding with existing setup data would *replace* it.
            matched_self = False
            for other in self.extent(tup.table):
                if other == tup and not matched_self:
                    matched_self = True
                    continue
                if len(other.values) == len(tup.values) and all(
                        other.values[c] == tup.values[c]
                        for c in key_columns):
                    return None
            # A runtime derivation sharing the key would evict the insert —
            # update semantics make the delta order-visible.
            if self._may_derive_matching(tup.table, tup.values, key_columns):
                return None
        return reason


_MISSING = object()
