"""Constant propagation through joined static tables, and over the closed
world of one replay.

The pass answers three questions, all *proofs* (a positive answer is never
wrong; "don't know" is always safe):

``tuple_inert_reason(table, values)``
    Can a tuple with these concrete values ever make any rule fire?  Besides
    constant arguments, repeated variables and pushable selection guards
    (evaluated with the engine's own wildcard-aware expression semantics),
    the pass propagates the tuple's constants through *joins with
    statically enumerable tables* — a key whose join column matches no
    static tuple is inert even though every guard alone is satisfiable.

``insert_inert(tup)``
    Is inserting ``tup`` at setup provably invisible to every replay?  True
    when (a) no rule can ever match the tuple (every consuming occurrence
    is ruled out by strict constant mismatch, an impossible wildcard join,
    a refuted guard, or an empty/mismatched static join), (b) the tuple is
    not in the flow table (whose contents are pushed to switches at
    ``on_start``), and (c) no rule could derive a tuple colliding with it
    (a pre-existing copy would suppress the runtime derivation delta, and
    under primary-key update semantics a key collision evicts).

``ClosedWorldKeys.key(program, inserted)``
    Do two patched programs replay one trace alike?  Equal keys say yes:
    their rules select the same PacketIns of the replay's domain (switch
    ids, the trace's header values), in the same order.

Matching mirrors the engine exactly (see :mod:`repro.ndlog.plan` and
:func:`repro.ndlog.expr.match_atom`): constant arguments and variable joins
are **strict** — the wildcard is an ordinary value at the storage layer —
while selection predicates evaluate wildcard-aware (``'*' == x`` holds,
ordered comparisons against ``'*'`` are false).  Event tables
(``PacketIn``) carry one axiom: runtime tuples are built from packet
headers and switch identifiers, so they never contain the wildcard.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..ndlog.ast import (
    Atom, BinOp, Const, Expression, FuncCall, Program, Rule, Var, WILDCARD,
)
from ..ndlog.errors import EvaluationError
from ..ndlog.expr import _compare, evaluate
from ..ndlog.plan import _may_escape, rule_shape
from ..ndlog.tuples import NDTuple, TableSchema


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


#: Most domain points one rule's closed-world key may enumerate; a rule
#: whose pruned product is larger keys as itself.
MAX_KEY_POINTS = 4096
#: Rule ids of :class:`ClosedWorldKeys` that are no key: a rule no domain
#: point satisfies, and a rule deriving PacketIn tuples.
_DROPPED = -1
_OPENS = -2


class ClosedWorldKeys:
    """Keys patched programs so that two with equal keys replay alike.

    The backtest replays one recorded trace, and a verdict reads only the
    replay's statistics, so two candidates whose programs derive the same
    control messages from every PacketIn of that replay need one replay.
    :meth:`key` is a static proof of that: equal keys, equal replays.

    The world is the PacketIn table's *domain*, one entry per column: the
    values the column can take in this replay, or ``None`` when they are
    not known (the backtester gives the switch column the topology's switch
    ids and each packet header column the values of that field in its cut
    of the trace).  A rule keys in one of three ways:

    * **closed-world**: when its body has one PacketIn atom and every
      selection variable is a direct argument of that atom at a column
      with a domain, is no assignment target, and no selection could be
      observed but through its value (a function call, or ``/`` and ``%``,
      whose ``ZeroDivisionError`` the engine does not defer), the key is
      ``(head, body, assignments, variables, points)``: ``points`` are the
      domain points of ``variables`` that satisfy every selection, as the
      engine evaluates them, with a variable the selections leave free
      over its whole domain projected out.  Selections only filter the
      joins of one PacketIn, so two such rules equal on that key fire
      alike on every PacketIn whose values lie in the domain.  The rule's
      name is no part of it;
    * **dropped**: a closed-world rule that no domain point satisfies never
      completes a join, so it derives nothing and raises nothing, and is
      left out of the program's key;
    * **structural**: any other rule, or a rule a domain point makes raise,
      or one whose pruned product exceeds :data:`MAX_KEY_POINTS`, keys as
      itself (its name, shape and constants).

    A program's key is the *ordered* tuple of its rule keys — rules fire in
    program order, and flow entries of one priority match in installation
    order — plus its inserted tuples in order.  The domain is closed, and a
    program keys closed-world, only when every PacketIn of the replay has
    its values in the domain:

    1. a PacketIn's switch lies among the topology's switches (the data
       plane raises PacketIns only from switches it has);
    2. no action rewrites a header, so every packet at every hop carries
       the headers it entered the trace with (a ``FlowEntry`` has only an
       ``out_port``, a ``PacketOut`` sends the packet it was given);
    3. no rule derives PacketIn tuples, and every value an inserted
       PacketIn tuple holds at a column with a domain lies within it.

    Otherwise every rule of the program keys structurally.  Rule keys are
    memoised by rule identity: programs share their unedited rules.
    """

    def __init__(self, packet_in_table: Optional[str],
                 domains: Sequence[Optional[Iterable]] = ()):
        self.packet_in_table = packet_in_table
        self.domains = tuple(None if domain is None else frozenset(domain)
                             for domain in domains)
        #: id(rule) -> (rule, its closed-world id).
        self._rules: Dict[int, Tuple[Rule, int]] = {}
        self._ids: Dict[object, int] = {}
        #: (column, op, constant, its type, constant on the left) -> the
        #: column's domain values that comparison keeps, ``None`` if one
        #: raises: a pad rule's ``Hdr == 80`` is evaluated once.
        self._kept: Dict[Tuple, Optional[frozenset]] = {}

    def key(self, program: Program, inserted: Sequence[NDTuple] = ()):
        """The replay key of ``program`` with ``inserted`` set-up tuples."""
        inserted = tuple(inserted)
        rules = self._rules
        closed = [(rules.get(id(rule)) or self._entry(rule))[1]
                  for rule in program.rules]
        if _OPENS not in closed and all(map(self._in_domain, inserted)):
            return True, tuple([i for i in closed if i != _DROPPED]), inserted
        return False, tuple(map(self._structural, program.rules)), inserted

    def _in_domain(self, tup: NDTuple) -> bool:
        if tup.table != self.packet_in_table:
            return True
        return len(tup.values) == len(self.domains) and all(
            domain is None or value in domain
            for value, domain in zip(tup.values, self.domains))

    def _id(self, key) -> int:
        return self._ids.setdefault(key, len(self._ids))

    def _structural(self, rule: Rule) -> int:
        """The id of the rule as itself: its name, shape and constants."""
        return self._id((rule.name,) + rule_shape(rule))

    def _entry(self, rule: Rule) -> Tuple[Rule, int]:
        if rule.head.table == self.packet_in_table:
            closed = _OPENS
        else:
            closed = self._closed_world_id(rule)
            if closed is None:
                closed = self._structural(rule)
        entry = self._rules[id(rule)] = (rule, closed)
        return entry

    def _closed_world_id(self, rule: Rule) -> Optional[int]:
        """The rule's closed-world key id, :data:`_DROPPED`, or ``None``
        when it keys as itself (class docstring)."""
        table, domains = self.packet_in_table, self.domains
        atoms = [atom for atom in rule.body if atom.table == table]
        if len(atoms) != 1 or len(atoms[0].args) != len(domains):
            return None
        columns: Dict[str, int] = {}
        for column, arg in enumerate(atoms[0].args):
            if arg.__class__ is Var and domains[column] is not None:
                columns.setdefault(arg.name, column)
        assigned = {assignment.var for assignment in rule.assignments}
        # Each ``Var op Const`` selection prunes its variable's domain
        # first (through a memo), so a rule like ``Swi == 100, Hdr == 80``
        # costs its domains, not their product; the other selections are
        # evaluated over the product of what is left.
        kept: Dict[str, frozenset] = {}
        others: List[Expression] = []
        for selection in rule.selections:
            expr = selection.expr
            left, right = expr.left, expr.right
            flipped = left.__class__ is Const
            var, const = (right, left) if flipped else (left, right)
            if var.__class__ is Var and const.__class__ is Const:
                column = columns.get(var.name)
                if column is None or var.name in assigned:
                    return None
                values = self._comparison(column, expr.op, const.value,
                                          flipped)
                if values is None:
                    return None
                kept[var.name] = kept.get(var.name, values) & values
                continue
            if _may_escape(expr) or any(
                    name in assigned or name not in columns
                    for name in selection.variables()):
                return None
            others.append(expr)
        if not all(kept.values()):
            return _DROPPED
        variables = tuple(sorted(set(kept).union(
            *(expr.variables() for expr in others))))
        pruned = [kept.get(name, domains[columns[name]])
                  for name in variables]
        if prod(map(len, pruned)) > MAX_KEY_POINTS:
            return None
        points = _satisfying(others, variables, product(*pruned))
        if points is None:
            return None
        if not points:
            return _DROPPED
        points = set(points)
        # A variable the selections leave free over its whole domain says
        # nothing: ``Swi >= 1`` on switches 1-4 keys as no selection.
        for position in reversed(range(len(variables))):
            rest = {point[:position] + point[position + 1:]
                    for point in points}
            if len(rest) * len(domains[columns[variables[position]]]) \
                    == len(points):
                points = rest
                variables = variables[:position] + variables[position + 1:]
        return self._id((rule.head, rule.body, rule.assignments, variables,
                         frozenset(points)))

    def _comparison(self, column: int, op: str, constant,
                    flipped: bool) -> Optional[frozenset]:
        """The values of ``column``'s domain ``value op constant`` keeps
        (``constant op value`` when ``flipped``), or ``None`` when one
        raises."""
        key = (column, op, constant, type(constant), flipped)
        if key not in self._kept:
            try:
                self._kept[key] = frozenset([
                    value for value in self.domains[column]
                    if (_compare(op, constant, value) if flipped
                        else _compare(op, value, constant))])
            except EvaluationError:
                self._kept[key] = None
        return self._kept[key]


def _satisfying(exprs: Sequence[Expression], names: Tuple[str, ...],
                points: Iterable[Tuple]) -> Optional[List[Tuple]]:
    """The ``points`` (value tuples over ``names``) at which every one of
    the selections ``exprs`` holds, as the engine evaluates them, or
    ``None`` when one raises an :class:`EvaluationError` at some point: the
    engine defers such a selection, and a static answer would be a
    guess."""
    if not exprs:
        return list(points)
    kept = []
    for point in points:
        bindings = dict(zip(names, point))
        try:
            if all(evaluate(expr, bindings) for expr in exprs):
                kept.append(point)
        except EvaluationError:
            return None
    return kept


_MISSING = object()
