"""Indexed, incrementally-maintained evaluation engine for NDlog programs.

The engine stores tuples in a :class:`~repro.ndlog.tuples.Database` and
evaluates rules to a fixpoint whenever base tuples are inserted.  It keeps
the current state only — tuples, their base/derived flags and the supports
of derived tuples — and no history: no event log, no derivation records and
no clock to stamp them.  A repair reads the meta provenance of the control
plane off one recorded run (:meth:`repro.scenarios.base.NDlogScenario.
recorded_run`), not off the engine.

Evaluation strategy
-------------------

Rules are *compiled* when a program is installed: each rule becomes a
:class:`~repro.ndlog.plan.CompiledRule` — specialized Python fire functions
(one per trigger position), made from code compiled once per rule *shape*
(its structure, constants as parameters) and shared across programs through
the process-global :data:`~repro.ndlog.plan.PLAN_CACHE`.  A fire function
processes a whole batch of trigger tuples per call; joins probe the
database's ``(column, value)`` hash indexes with the equality constraints
implied by constants and already-bound variables, and selection predicates
are pushed down to the first join depth where their variables are bound.
There is one fixpoint loop, :meth:`Engine._fixpoint`: a deque-based
worklist of single-tuple batches, which fixes the order in which an insert
reports what it derived.  The recompute behind :meth:`Engine.remove` runs
the same loop over every remaining base tuple.  Duplicate rule firings are
detected with a per-head hash set of supports.  The loop spends one firing
budget, ``max_derivations``: a program that keeps deriving raises
:class:`~repro.ndlog.errors.EvaluationError` instead of running forever.

The fire functions are the only code that joins a rule body.  Firing is
*eager*: a fire call returns the complete list of firings for its batch, and
only then does the engine apply them (supports, inserts).  Every
join therefore reads a single database state, and the order of the firings
is a function of that state alone — atoms in program order around the
trigger, candidates in index-bucket order — even for a rule whose head
feeds one of its own body tables: such a head re-enters the rule as a later
worklist trigger instead of being seen by the join that derived it.

Rule dispatch
-------------

A tuple is offered only to the rules it can match.  Each plan carries, per
trigger position, a *guard* — the ``(column, constant)`` pairs a tuple must
hold there (:mod:`repro.ndlog.plan` says what is a guard and what is not) —
and :meth:`Engine._index_rules` files every ``(ordinal, plan, position)``
entry of a table either under ``exact[columns][values]`` or, unguarded, in
``residual``; ``ordinal`` is the entry's place in program order.
:meth:`Engine.plans_triggered_by` makes one dict probe per distinct column
signature (a ``WILDCARD`` value at a guarded column selects every bucket
compatible with it, a tuple too short for a signature selects none of its
buckets) and merges the hits with ``residual`` by ordinal.  The invariant:
**dispatch returns a superset of the plans that would produce a firing, in
program order; ``fire`` still performs every check it would without it.**
So the set of firings and their order — every derived list and report —
are those of offering each tuple to every rule of its table, and what a
tuple costs depends on the rules it can match, not on the size of the
program.  Order comes from the ordinals alone, never from dict or
set iteration.

Retraction
----------

Backtesting replays a recorded trace, and a replay only inserts: nothing
the debugger runs retracts a tuple.  So :meth:`Engine.remove` is a
recompute, not an incremental algorithm: it drops the tuple, clears every
derived flag and the supports, and re-derives everything from the
remaining base tuples in insertion order (a tuple can be base *and* derived
at once; retracting one base tuple never evicts another).  What disappeared
is reported in store order.  Freeing a primary key lets a tuple an earlier
key update evicted come back, and when several live derivations assign
*different* values to one key, the survivor is evaluation-order dependent —
a property of the update semantics itself, shared with the reference
evaluator.

The *supports* — per derived tuple, the ``(rule, body tuples)`` firings
that produced it — are what stops the same firing from being applied
twice.  :meth:`Engine.consume` (one-shot messages such as ``PacketOut``)
and the post-fixpoint sweep of transient tables drop a tuple but keep its
supports, so replaying the exact same firing does not re-emit it — NDlog's
one-shot message semantics.  A key update that evicts a derived tuple
forgets its supports, so the same firing can re-derive it once the key is
free.  A recompute starts from no supports, so a consumed
message or transient head that the remaining base still derives is back in
the store afterwards, as in the reference evaluator's recompute.

The engine is deliberately single-threaded and deterministic: rule/body
iteration order is the program order.  This determinism is what makes
backtesting reproducible.  A scan-based reference implementation with
identical insert-time semantics, ``NaiveEngine``, is the test suite's
cross-check oracle and lives with it (``tests/ndlog/reference_engine.py``);
it also keeps the event log and derivation records that classical
provenance reads.  No repair runs it.

Every backtested candidate gets an engine of its own, built cold: the
static tuples of its scenario run to a fixpoint under its program, and the
recorded trace is replayed on top.  Nothing is rewound or switched.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .ast import Program, WILDCARD
from .errors import EvaluationError
from .expr import FunctionRegistry
from .plan import CompiledRule, PLAN_CACHE
from .tuples import DERIVED_FLAG, Database, NDTuple, TableSchema


#: One dispatch entry: a plan, the body position it is triggered at, and
#: the entry's place in program order (rules, then body atoms).
_Entry = Tuple[int, CompiledRule, int]


class Engine:
    """Evaluates an NDlog program over a database of tuples."""

    def __init__(self, program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 functions: Optional[FunctionRegistry] = None,
                 max_derivations: int = 1_000_000):
        self.program = program
        self.database = Database(schemas)
        self.functions = functions or FunctionRegistry()
        self.max_derivations = max_derivations
        #: Firings applied to each derived tuple: {(rule_name, body), ...}
        #: — the firing dedup (module docstring, "Retraction").
        self._supports: Dict[NDTuple, Set[Tuple[str, Tuple[NDTuple, ...]]]] = {}
        #: Rule dispatch (module docstring): per body table ``(residual,
        #: exact)``; read through :meth:`plans_triggered_by`.
        self._dispatch: Dict[str, Tuple[List[_Entry], Dict[
            Tuple[int, ...], Dict[Tuple, List[_Entry]]]]] = {}
        #: Rule firings applied by both fixpoints: the ``max_derivations``
        #: runaway guard counts them.
        self._firings = 0
        #: Monotone telemetry counters (:meth:`telemetry_counters`) — two
        #: unconditional int adds per fixpoint.
        self.fixpoint_count = 0
        self.tuples_derived_total = 0
        #: Optional :class:`repro.obs.Tracer`; when attached, each
        #: insert-triggered fixpoint runs under an ``engine.fixpoint``
        #: span.  ``None`` (the default) costs one identity check per
        #: insert and nothing else.
        self.tracer = None
        self.database.eviction_hook = weakref.WeakMethod(self._on_evicted)
        self._index_rules()

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _index_rules(self):
        """Assemble the dispatch table for the program.

        Plans are fetched from the process-global :data:`PLAN_CACHE`: an
        unchanged rule — from a sibling candidate program or another engine
        entirely — reuses its binding, a rule that differs only in constants
        binds its shape's compiled code, and the guards ride on the plan:
        assembly files one entry per body atom.
        """
        dispatch = {}
        cache = PLAN_CACHE
        ordinal = 0
        for rule in self.program.rules:
            plan = cache.get(rule)
            for position, table in enumerate(plan.body_tables):
                residual, exact = dispatch.setdefault(table, ([], {}))
                entries = residual
                guard = plan.guards[position]
                if guard is not None:
                    columns, values = guard
                    entries = exact.setdefault(columns, {}).setdefault(
                        values, [])
                entries.append((ordinal, plan, position))
                ordinal += 1
        self._dispatch = dispatch

    def plans_triggered_by(self, trigger: NDTuple) -> Sequence[_Entry]:
        """The ``(ordinal, plan, position)`` entry of every rule ``trigger``
        can fire, in program order: the unguarded entries of its table merged
        with the buckets whose guard it meets (module docstring, "Rule
        dispatch").  A live bucket when one run holds them all: do not
        mutate."""
        found = self._dispatch.get(trigger.table)
        if found is None:
            return ()
        residual, exact = found
        runs = [residual] if residual else []
        value_at = trigger.values.__getitem__
        for columns, buckets in exact.items():
            try:
                key = tuple(map(value_at, columns))
            except IndexError:
                continue        # too short to meet any guard on these columns
            if WILDCARD in key:
                runs.extend(
                    bucket for values, bucket in buckets.items()
                    if all(mine == WILDCARD or mine == theirs
                           for mine, theirs in zip(key, values)))
            else:
                runs.append(buckets.get(key, ()))
        # Ordinals are unique, so the sort never compares two plans.
        return runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))

    def register_schema(self, schema: TableSchema):
        self.database.register_schema(schema)

    # ------------------------------------------------------------------
    # Public mutation API
    # ------------------------------------------------------------------

    def insert(self, tup: NDTuple) -> List[NDTuple]:
        """Insert a base tuple, run to fixpoint, and return new derived tuples.

        Transient (non-persistent) tuples — both the inserted one and any
        transient derived heads — are removed from the database after the
        fixpoint, but remain in the returned list, mirroring NDlog's message
        semantics.
        """
        database = self.database
        if not database.insert(tup, derived=False):
            derived = []
        elif self.tracer is None:
            derived = self._fixpoint([tup])
        else:
            derived = self._traced_fixpoint(tup)
        # The transient sweep of _cleanup_transients, over the inserted
        # tuple and then the derived ones.
        transients = database.transient_tables
        if transients:
            if tup.table in transients:
                database.remove(tup)
            for head in derived:
                if head.table in transients:
                    database.remove(head)
        return derived

    def insert_many(self, tuples: Iterable[NDTuple]) -> List[NDTuple]:
        """Insert several base tuples, running a single fixpoint at the end."""
        db_insert = self.database.insert
        inserted = [tup for tup in tuples if db_insert(tup, derived=False)]
        derived = self._fixpoint(inserted)
        self._cleanup_transients(inserted + derived)
        return derived

    def remove(self, tup: NDTuple) -> List[NDTuple]:
        """Retract a tuple and recompute the derived set from the base.

        Returns the derived tuples that disappeared, in store order.  Derived
        flags and supports are dropped and everything is re-derived from the
        remaining base tuples in insertion order (module docstring,
        "Retraction").
        """
        database = self.database
        if not database.contains(tup):
            return []
        database.remove(tup)
        before = [t for t, flags in database._flags.items()
                  if flags & DERIVED_FLAG]
        for derived in before:
            database.clear_derived_flag(derived)
        self._supports = {}
        self._fixpoint(list(database.base_in_order()))
        return [gone for gone in before if not database.contains(gone)]

    def consume(self, tup: NDTuple) -> bool:
        """Drop a message tuple from the database without underiving anything.

        Used by controllers for derived tuples that act as one-shot messages
        (e.g. ``PacketOut``): the tuple leaves the store, but its supports
        stay registered, so replaying the exact same firing does not re-emit
        it.  A later :meth:`remove` recomputes from no supports and
        brings the message back if the remaining base still derives it.
        """
        return self.database.remove(tup)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tuples(self, table) -> Set[NDTuple]:
        return self.database.tuples(table)

    def contains(self, tup: NDTuple) -> bool:
        return self.database.contains(tup)

    # ------------------------------------------------------------------
    # Fixpoint evaluation
    # ------------------------------------------------------------------

    def _fixpoint(self, delta: Sequence[NDTuple]) -> List[NDTuple]:
        worklist = deque(delta)
        newly_derived: List[NDTuple] = []
        supports = self._supports
        database = self.database
        functions = self.functions
        dispatch = self._dispatch
        plans_triggered_by = self.plans_triggered_by
        limit = self.max_derivations
        while worklist:
            trigger = worklist.popleft()
            if trigger.table not in dispatch:
                continue        # no rule reads its table (e.g. a flow head)
            batch = (trigger,)
            for _ordinal, plan, position in plans_triggered_by(trigger):
                # fire() returns its complete list before any firing below
                # is applied, so every join in it reads one database state.
                for head, body in plan.fire(position, batch, database,
                                            functions):
                    key = (plan.name, body)
                    head_supports = supports.setdefault(head, set())
                    size = len(head_supports)
                    head_supports.add(key)
                    if len(head_supports) == size:
                        # Exact duplicate firing: nothing new to derive.
                        continue
                    self._firings += 1
                    if self._firings > limit:
                        raise EvaluationError(
                            f"derivation limit of {limit} exceeded; "
                            "the program is probably not terminating")
                    if database.insert(head, derived=True):
                        newly_derived.append(head)
                        worklist.append(head)
        self.fixpoint_count += 1
        self.tuples_derived_total += len(newly_derived)
        return newly_derived

    def _traced_fixpoint(self, tup: NDTuple) -> List[NDTuple]:
        """One insert-triggered fixpoint under an ``engine.fixpoint`` span.

        Only reached when a :mod:`repro.obs` tracer is attached
        (``trace_fixpoints``); the plain path never enters here.
        """
        with self.tracer.span("engine.fixpoint", table=tup.table) as span:
            derived = self._fixpoint([tup])
            span.set("derived", len(derived))
        return derived

    def telemetry_counters(self) -> Dict[str, int]:
        """Monotone work counters sampled by the observability layer.

        ``rules_fired`` is the firing budget spent so far.  Cheap enough to
        sample per replay slice.
        """
        return {
            "engine_fixpoints": self.fixpoint_count,
            "tuples_derived": self.tuples_derived_total,
            "rules_fired": self._firings,
            "index_materializations": self.database.index_materializations,
        }

    def _on_evicted(self, tup: NDTuple):
        """A primary-key update evicted ``tup``: forget its supports so the
        same firing can re-derive it once the key is free again."""
        self._supports.pop(tup, None)

    # ------------------------------------------------------------------
    # Transient-tuple handling
    # ------------------------------------------------------------------

    def _cleanup_transients(self, candidates: Iterable[NDTuple]):
        transients = self.database.transient_tables
        if not transients:
            return
        for tup in candidates:
            if tup.table in transients:
                self.database.remove(tup)
