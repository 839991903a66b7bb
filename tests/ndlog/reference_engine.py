"""Reference (naive) NDlog evaluator kept as a correctness oracle.

This is the original scan-based evaluation strategy the indexed engine in
:mod:`repro.ndlog.engine` replaced: joins enumerate whole tables per body
atom, derivation dedup scans the per-head record list, and deletion
recomputes the entire derived set from the remaining base tuples.  It is
deliberately simple and slow.

Tests cross-check the indexed engine against this oracle (identical derived
tuple sets over the Q1–Q5 scenario workloads and over delete/reinsert
sequences driven through ``insert``/``remove``); no repair runs it.

It is also the only engine that records: a chronological event log
(:class:`EngineEvent`: INSERT / DELETE / DERIVE / UNDERIVE / APPEAR /
DISAPPEAR / SEND / RECEIVE) and one :class:`DerivationRecord` per distinct
rule firing, stamped by a logical clock.  The indexed engine keeps state,
not history; classical provenance (``tests/provenance``) and the
recording-engine Diagnose (``tests/recording_oracle.py``) read this
history.

Two intentional notes on oracle fidelity:

* the original evaluator refused to re-insert a head whose exact firing was
  already in the derivation history, so a deleted-then-reinserted base tuple
  never re-derived its consequences; the oracle keeps the historical dedup
  for *records* but re-inserts a missing head (the fixpoint property), the
  same fix the indexed engine received;
* tuples dropped via ``engine.consume`` / ``database.remove`` (one-shot
  message semantics) bypass both evaluators' bookkeeping and are not part of
  the cross-checked surface.

The oracle shares the storage layer (:class:`~repro.ndlog.tuples.Database`)
with the real engine; only the evaluation strategy and the recording differ.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.ndlog.ast import Atom, Const, Program, Rule, Var
from repro.ndlog.errors import EvaluationError
from repro.ndlog.expr import Bindings, FunctionRegistry, evaluate
from repro.ndlog.tuples import Database, NDTuple, TableSchema


# Event kinds.  They mirror the vertex names used by the paper.
INSERT = "INSERT"
DELETE = "DELETE"
DERIVE = "DERIVE"
UNDERIVE = "UNDERIVE"
APPEAR = "APPEAR"
DISAPPEAR = "DISAPPEAR"
SEND = "SEND"
RECEIVE = "RECEIVE"


def location(tup: NDTuple, schema: Optional[TableSchema] = None):
    """The node ``tup`` lives at: its location-specifier column (the first
    without a schema), ``None`` for a tuple too short to have one."""
    index = schema.location_index if schema is not None else 0
    return tup.values[index] if index < len(tup.values) else None


@dataclass(frozen=True)
class DerivationRecord:
    """A single successful rule firing.

    Attributes:
        rule: name of the rule that fired.
        head: the derived head tuple.
        body: the body tuples that satisfied the rule, in body-atom order.
        bindings: the variable assignment under which the rule fired, as
            name-sorted ``(var, value)`` pairs.
        time: logical timestamp of the derivation.
        node: node at which the head tuple was produced.
    """

    rule: str
    head: NDTuple
    body: Tuple[NDTuple, ...]
    bindings: Tuple[Tuple[str, object], ...]
    time: int
    node: object = None


@dataclass(frozen=True)
class EngineEvent:
    """One entry of the chronological event log."""

    kind: str
    time: int
    tuple: NDTuple
    node: object = None
    rule: Optional[str] = None
    derivation: Optional[DerivationRecord] = None
    source: object = None
    destination: object = None


class NaiveEngine:
    """Evaluates an NDlog program by scanning tables (the pre-index engine),
    recording every event and derivation."""

    def __init__(self, program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 functions: Optional[FunctionRegistry] = None,
                 max_derivations: int = 1_000_000):
        self.program = program
        self.database = Database(schemas)
        self.functions = functions or FunctionRegistry()
        self.max_derivations = max_derivations
        self.clock = 0
        self.events: List[EngineEvent] = []
        self.derivations: List[DerivationRecord] = []
        self._derivations_by_head: Dict[NDTuple, List[DerivationRecord]] = defaultdict(list)
        self._rules_by_body_table: Dict[str, List[Tuple[Rule, int]]] = defaultdict(list)
        self._index_rules()

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _index_rules(self):
        self._rules_by_body_table.clear()
        for rule in self.program.rules:
            for position, atom in enumerate(rule.body):
                self._rules_by_body_table[atom.table].append((rule, position))

    def register_schema(self, schema: TableSchema):
        self.database.register_schema(schema)

    # ------------------------------------------------------------------
    # Event logging
    # ------------------------------------------------------------------

    def _tick(self):
        self.clock += 1
        return self.clock

    def _log(self, kind, tup, node=None, rule=None, derivation=None,
             source=None, destination=None):
        time = self._tick()
        self.events.append(EngineEvent(
            kind=kind, time=time, tuple=tup, node=node, rule=rule,
            derivation=derivation, source=source, destination=destination))
        return time

    # ------------------------------------------------------------------
    # Public mutation API
    # ------------------------------------------------------------------

    def insert(self, tup: NDTuple) -> List[NDTuple]:
        schema = self.database.schema(tup.table)
        node = location(tup, schema)
        fresh = self.database.insert(tup, derived=False)
        self._log(INSERT, tup, node=node)
        if fresh:
            self._log(APPEAR, tup, node=node)
        derived = self._fixpoint([tup]) if fresh else []
        self._cleanup_transients([tup] + derived)
        return derived

    def insert_many(self, tuples: Iterable[NDTuple]) -> List[NDTuple]:
        inserted = []
        for tup in tuples:
            schema = self.database.schema(tup.table)
            node = location(tup, schema)
            if self.database.insert(tup, derived=False):
                inserted.append(tup)
                self._log(INSERT, tup, node=node)
                self._log(APPEAR, tup, node=node)
        derived = self._fixpoint(inserted)
        self._cleanup_transients(inserted + derived)
        return derived

    def remove(self, tup: NDTuple) -> List[NDTuple]:
        """Remove a base tuple and recompute the derived set from scratch."""
        if not self.database.contains(tup):
            return []
        schema = self.database.schema(tup.table)
        node = location(tup, schema)
        self.database.clear_base_flag(tup)
        self.database.clear_derived_flag(tup)
        self._log(DELETE, tup, node=node)
        self._log(DISAPPEAR, tup, node=node)
        return self._recompute_derived()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tuples(self, table) -> Set[NDTuple]:
        return self.database.tuples(table)

    def contains(self, tup: NDTuple) -> bool:
        return self.database.contains(tup)

    def derivations_of(self, tup: NDTuple) -> List[DerivationRecord]:
        return list(self._derivations_by_head.get(tup, ()))

    def event_log(self) -> List[EngineEvent]:
        return list(self.events)

    # ------------------------------------------------------------------
    # Fixpoint evaluation
    # ------------------------------------------------------------------

    def _fixpoint(self, delta: Sequence[NDTuple]) -> List[NDTuple]:
        worklist = list(delta)
        newly_derived: List[NDTuple] = []
        while worklist:
            trigger = worklist.pop(0)
            for rule, position in self._rules_by_body_table.get(trigger.table, ()):
                for head, body, bindings in self._fire_rule(rule, position, trigger):
                    record = self._record_derivation(rule, head, body, bindings)
                    is_new = not self.database.contains(head)
                    if record is None and not is_new:
                        # Duplicate firing of a tuple that is still present:
                        # nothing to do.  (A *missing* head is re-inserted
                        # even when its record is a historical duplicate —
                        # the database must satisfy the fixpoint property.)
                        continue
                    self.database.insert(head, derived=True)
                    if is_new:
                        newly_derived.append(head)
                        worklist.append(head)
        return newly_derived

    def _recompute_derived(self) -> List[NDTuple]:
        """Recompute the derived set from base tuples after a deletion.

        Tuples that are also base keep their base flag (removing one base
        tuple must never evict another).
        """
        before = self.database.derived_tuples()
        for tup in before:
            self.database.clear_derived_flag(tup)
        base = list(self.database.base_tuples())
        recomputed: Set[NDTuple] = set()
        worklist = list(base)
        while worklist:
            trigger = worklist.pop(0)
            for rule, position in self._rules_by_body_table.get(trigger.table, ()):
                for head, body, bindings in self._fire_rule(rule, position, trigger):
                    if not self.database.is_derived(head):
                        fresh = not self.database.contains(head)
                        self.database.insert(head, derived=True)
                        recomputed.add(head)
                        if fresh:
                            worklist.append(head)
        # A tuple that was derived before and is absent now disappeared —
        # even if the recompute briefly re-derived it and a primary-key
        # update evicted it again.
        disappeared = [t for t in before if not self.database.contains(t)]
        for tup in disappeared:
            schema = self.database.schema(tup.table)
            node = location(tup, schema)
            self._log(UNDERIVE, tup, node=node)
            self._log(DISAPPEAR, tup, node=node)
        return disappeared

    def _record_derivation(self, rule: Rule, head: NDTuple,
                           body: Tuple[NDTuple, ...], bindings: Dict[str, object]):
        if len(self.derivations) >= self.max_derivations:
            raise EvaluationError(
                f"derivation limit of {self.max_derivations} exceeded; "
                "the program is probably not terminating")
        for existing in self._derivations_by_head.get(head, ()):
            if existing.rule == rule.name and existing.body == body:
                return None
        record = DerivationRecord(
            rule=rule.name,
            head=head,
            body=body,
            bindings=tuple(sorted(bindings.items(), key=lambda kv: kv[0])),
            time=self.clock + 1,
            node=self._head_node(rule, head),
        )
        self.derivations.append(record)
        self._derivations_by_head[head].append(record)
        head_node = record.node
        trigger_node = location(body[0], self.database.schema(body[0].table)) if body else None
        if body and head_node is not None and trigger_node is not None and head_node != trigger_node:
            self._log(SEND, head, node=trigger_node, rule=rule.name,
                      source=trigger_node, destination=head_node)
            self._log(RECEIVE, head, node=head_node, rule=rule.name,
                      source=trigger_node, destination=head_node)
        self._log(DERIVE, head, node=head_node, rule=rule.name, derivation=record)
        if not self.database.contains(head):
            self._log(APPEAR, head, node=head_node, rule=rule.name)
        return record

    def _head_node(self, rule: Rule, head: NDTuple):
        schema = self.database.schema(head.table)
        return location(head, schema)

    # ------------------------------------------------------------------
    # Rule firing (scan-based joins)
    # ------------------------------------------------------------------

    def _fire_rule(self, rule: Rule, trigger_position: int, trigger: NDTuple):
        initial = self._match_atom(rule.body[trigger_position], trigger, Bindings())
        if initial is None:
            return
        yield from self._join_remaining(rule, trigger_position, trigger, initial, 0, [])

    def _join_remaining(self, rule, trigger_position, trigger, bindings, atom_index, chosen):
        if atom_index == len(rule.body):
            result = self._finish_rule(rule, bindings)
            if result is not None:
                head, final_bindings = result
                body = tuple(self._ordered_body(rule, trigger_position, trigger, chosen))
                yield head, body, final_bindings
            return
        if atom_index == trigger_position:
            yield from self._join_remaining(
                rule, trigger_position, trigger, bindings, atom_index + 1, chosen)
            return
        atom = rule.body[atom_index]
        for candidate in self.database.tuples(atom.table):
            extended = self._match_atom(atom, candidate, bindings)
            if extended is None:
                continue
            yield from self._join_remaining(
                rule, trigger_position, trigger, extended, atom_index + 1,
                chosen + [(atom_index, candidate)])

    def _ordered_body(self, rule, trigger_position, trigger, chosen):
        by_index = {trigger_position: trigger}
        by_index.update(dict(chosen))
        return [by_index[i] for i in range(len(rule.body))]

    def _match_atom(self, atom: Atom, tup: NDTuple, bindings: Bindings) -> Optional[Bindings]:
        if atom.table != tup.table or atom.arity != tup.arity:
            return None
        new = Bindings(bindings)
        for arg, value in zip(atom.args, tup.values):
            if isinstance(arg, Var):
                if arg.name in new:
                    if new[arg.name] != value:
                        return None
                else:
                    new[arg.name] = value
            elif isinstance(arg, Const):
                if arg.value != value:
                    return None
            else:
                try:
                    computed = evaluate(arg, new, self.functions, rule_name="<atom-arg>")
                except EvaluationError:
                    return None
                if computed != value:
                    return None
        return new

    def _finish_rule(self, rule: Rule, bindings: Bindings):
        env = Bindings(bindings)
        pending_assignments = list(rule.assignments)
        pending_selections = list(rule.selections)
        progress = True
        while progress:
            progress = False
            for assignment in list(pending_assignments):
                if assignment.expr.variables() <= set(env):
                    env[assignment.var] = evaluate(
                        assignment.expr, env, self.functions, rule.name)
                    pending_assignments.remove(assignment)
                    progress = True
            for selection in list(pending_selections):
                if selection.variables() <= set(env):
                    if not evaluate(selection.expr, env, self.functions, rule.name):
                        return None
                    pending_selections.remove(selection)
                    progress = True
        if pending_selections or pending_assignments:
            return None
        head_values = []
        for arg in rule.head.args:
            if isinstance(arg, Var):
                if arg.name not in env:
                    return None
                head_values.append(env[arg.name])
            else:
                head_values.append(evaluate(arg, env, self.functions, rule.name))
        return NDTuple(rule.head.table, tuple(head_values)), dict(env)

    # ------------------------------------------------------------------
    # Transient-tuple handling
    # ------------------------------------------------------------------

    def _cleanup_transients(self, candidates: Iterable[NDTuple]):
        for tup in candidates:
            schema = self.database.schema(tup.table)
            if schema is not None and not schema.persistent:
                self.database.remove(tup)
