"""The closed world of one replay: which tuples can make a rule fire.

The backtest replays one recorded trace under every candidate.  Two
questions let it skip a replay, and both answers are *proofs* (a positive
answer is never wrong; "don't know" is always safe):

:func:`insert_inert`
    Is inserting a tuple at set-up invisible to every replay?  The vetter's
    ``inert-insert`` veto asks it of each tuple an insert-only candidate
    inserts.
:meth:`ClosedWorldKeys.key`
    Do two patched programs replay one trace alike?  Equal keys say yes.

Both read a rule as the engine evaluates it (:mod:`repro.ndlog.plan`):
constant arguments and variable joins are **strict** — ``'*'`` is an
ordinary value at the storage layer — while selections evaluate
wildcard-aware (``'*' == x`` holds, ordered comparisons against ``'*'``
fail).  Neither decides on a selection that raises an
:class:`~repro.ndlog.errors.EvaluationError` (the engine defers it) or
evaluates one that could escape (:func:`~repro.ndlog.plan._may_escape`: a
function call, or ``/`` and ``%``, whose ``ZeroDivisionError`` the engine
does not defer).  What a replay's PacketIns hold:

0. *The PacketIn axiom*: the data plane builds a PacketIn tuple from a
   switch id and a packet's header values, so it never holds ``'*'``; a
   ``'*'`` that must join a column of an event table joins nothing —
   unless a rule derives that table, or a set-up tuple of it (an inserted
   one) holds ``'*'`` at that column.
1. A PacketIn's switch lies among the topology's switches (the data plane
   raises PacketIns only from switches it has).
2. No action rewrites a header, so every packet at every hop carries the
   headers it entered the trace with (a ``FlowEntry`` has only an
   ``out_port``, a ``PacketOut`` sends the packet it was given).
3. No rule derives PacketIn tuples, and every value an inserted PacketIn
   tuple holds at a column with a domain lies within it.

:func:`insert_inert` rests on the axiom alone; :class:`ClosedWorldKeys`
keys a program closed-world only where 1–3 hold.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import (Callable, Collection, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..ndlog.ast import Atom, Const, Expression, Program, Rule, Var, WILDCARD
from ..ndlog.errors import EvaluationError
from ..ndlog.expr import _compare, evaluate
from ..ndlog.plan import _may_escape, rule_shape
from ..ndlog.tuples import NDTuple, TableSchema


def insert_inert(tup: NDTuple, program: Program, setup: Sequence[NDTuple],
                 event_tables: Collection[str] = (),
                 schemas: Optional[Mapping[str, TableSchema]] = None,
                 flow_table: Optional[str] = None) -> Optional[str]:
    """Why inserting ``tup`` at set-up is invisible to every replay of
    ``program``, or ``None`` when it might not be.  It is when no consuming
    occurrence may fire on it (a strict mismatch, a refuted guard, or a
    ``'*'`` the PacketIn axiom keeps from joining ``event_tables``: a table
    no rule derives, at a column where no ``setup`` tuple holds ``'*'``),
    it is no flow-table tuple (pushed to switches at ``on_start``), no rule
    could derive it (a copy already there would change the derivation
    delta), and under a primary key neither a derivable tuple nor another
    tuple of ``setup`` (the tuples the replay starts from, ``tup``'s own
    copy skipped once) shares its key (one would evict the other).

    The reason is ``"unconsumed-table"`` when no rule reads the table, else
    the strongest an occurrence gave: ``"join-impossible"``, then
    ``"guard-refuted"``, then ``"shape-mismatch"``."""
    if flow_table is not None and tup.table == flow_table:
        return None
    table, values = tup.table, tup.values
    reasons = set()
    # Per event table the axiom covers, the columns a set-up tuple of it
    # holds ``'*'`` at; ``None`` for one a rule derives.  Filled on need.
    wildcards: Dict[str, Optional[Set[int]]] = {}

    def joins_nothing(atom: Atom, bindings: Dict[str, object]) -> bool:
        """Does the PacketIn axiom keep ``atom`` of an event table from
        joining a ``'*'`` that ``bindings`` give one of its variables?"""
        wild = [column for column, arg in enumerate(atom.args)
                if arg.__class__ is Var and bindings.get(arg.name) == WILDCARD]
        if not wild:
            return False
        if atom.table not in wildcards:
            wildcards[atom.table] = (
                None if program.rules_deriving(atom.table) else
                {column for other in setup if other.table == atom.table
                 for column, value in enumerate(other.values)
                 if value == WILDCARD})
        held = wildcards[atom.table]
        return held is not None and any(column not in held
                                         for column in wild)

    for rule in program.rules:
        for index, atom in enumerate(rule.body):
            if atom.table == table:
                reason = _ruled_out(rule, index, values, event_tables,
                                    joins_nothing)
                if reason is None:
                    return None
                reasons.add(reason)
    if _may_derive(program, table, values, range(len(values))):
        return None
    schema = (schemas or {}).get(table)
    if schema is not None and schema.primary_key:
        key_columns = schema.key_indexes()
        matched_self = False
        for other in setup:
            if other.table != table:
                continue
            if other == tup and not matched_self:
                matched_self = True
            elif len(other.values) == len(values) and all(
                    other.values[c] == values[c] for c in key_columns):
                return None
        if _may_derive(program, table, values, key_columns):
            return None
    for reason in ("join-impossible", "guard-refuted", "shape-mismatch"):
        if reason in reasons:
            return reason
    return "unconsumed-table"


def _ruled_out(rule: Rule, atom_index: int, values: Tuple,
               event_tables: Collection[str],
               joins_nothing: Callable[[Atom, Dict[str, object]], bool]
               ) -> Optional[str]:
    """Why ``values`` never fires ``rule`` at body position ``atom_index``,
    or ``None``."""
    bindings = _match(rule.body[atom_index], values)
    if bindings is None:
        return "shape-mismatch"
    if _guard_refuted(rule, bindings):
        return "guard-refuted"
    for index, atom in enumerate(rule.body):
        if (index != atom_index and atom.table in event_tables
                and joins_nothing(atom, bindings)):
            return "join-impossible"
    return None


def _match(atom: Atom, values: Tuple) -> Optional[Dict[str, object]]:
    """The bindings of a strict, engine-style match of ``values`` against
    ``atom``, or ``None``.  An expression argument is compared only where
    it evaluates, and without escaping."""
    if len(atom.args) != len(values):
        return None
    bindings: Dict[str, object] = {}
    for arg, value in zip(atom.args, values):
        if arg.__class__ is Const:
            if value != arg.value:
                return None
        elif arg.__class__ is Var:
            if bindings.setdefault(arg.name, value) != value:
                return None
        elif not _may_escape(arg):
            try:
                if evaluate(arg, bindings) != value:
                    return None
            except EvaluationError:
                pass
    return bindings


def _guard_refuted(rule: Rule, bindings: Dict[str, object]) -> bool:
    """Does a selection the engine evaluates on ``bindings`` alone fail?
    One over an assigned variable waits for the assignment."""
    assigned = {assignment.var for assignment in rule.assignments}
    names, point = tuple(bindings), tuple(bindings.values())
    return any(_satisfying([selection.expr], names, [point]) == []
               for selection in rule.selections
               if selection.variables() <= bindings.keys() - assigned
               and not _may_escape(selection.expr))


def _may_derive(program: Program, table: str, values: Tuple,
                columns: Iterable[int]) -> bool:
    """Could some rule derive a tuple of ``table`` agreeing with ``values``
    on ``columns``?  A head column that is neither a constant nor a
    variable assigned one is assumed to agree."""
    for rule in program.rules:
        head = rule.head
        if head.table != table or len(head.args) != len(values):
            continue
        constants = {assignment.var: assignment.expr
                     for assignment in rule.assignments
                     if isinstance(assignment.expr, Const)}
        for column in columns:
            arg = head.args[column]
            if isinstance(arg, Var):
                arg = constants.get(arg.name, arg)
            if isinstance(arg, Const) and arg.value != values[column]:
                break
        else:
            return True
    return False


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
      with a domain, is no assignment target, and no selection could
      escape (module docstring), the key is
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
    its values in the domain: rules 1–3 of the module docstring.
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
        closed = (_OPENS if rule.head.table == self.packet_in_table
                  else self._closed_id(rule))
        if closed is None:
            closed = self._structural(rule)
        entry = self._rules[id(rule)] = (rule, closed)
        return entry

    def _closed_id(self, rule: Rule) -> Optional[int]:
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
    ``None`` when one raises an :class:`EvaluationError` at some point (the
    engine defers it, so a static answer would be a guess)."""
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

