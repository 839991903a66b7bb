"""Indexed, incrementally-maintained evaluation engine for NDlog programs.

The engine stores tuples in a :class:`~repro.ndlog.tuples.Database`, evaluates
rules to a fixpoint whenever base tuples are inserted, and keeps two kinds of
history used by the provenance subsystem:

* a chronological event log (`EngineEvent` records: INSERT / DERIVE /
  APPEAR / SEND / RECEIVE / ... ), and
* the set of `DerivationRecord`s, one per successful rule firing, storing
  the head tuple, the body tuples and the variable bindings.

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
There are two fixpoint loops.  The event-visible one
(:meth:`Engine._fixpoint`) runs off a deque-based worklist of single-tuple
batches, which fixes the firing order the event log and the derivation
history record.  The quiet one
(:meth:`Engine._rederive_fixpoint`) is the recompute behind
:meth:`Engine.remove`: semi-naive delta rounds, each joining only the
previous round's fresh tuples — batched per table — against the indexes.
Duplicate rule firings are detected with a per-(rule, head) hash set rather
than a linear scan of the derivation history.

The fire functions are the only code that joins a rule body.  Firing is
*eager*: a fire call returns the complete list of firings for its batch, and
only then does the engine apply them (supports, events, inserts).  Every
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
So the set of firings and their order — every event log, derivation record
and report — are those of offering each tuple to every rule of its table,
and what a tuple costs depends on the rules it can match, not on the size
of the program.  Order comes from the ordinals alone, never from dict or
set iteration.  The batched quiet fixpoint offers a batch to all entries of
its table: guards select per tuple.

Retraction
----------

Backtesting replays a recorded trace, and a replay only inserts: nothing
the debugger runs retracts a tuple.  So :meth:`Engine.remove` is a
recompute, not an incremental algorithm: it drops the tuple, clears every
derived flag and the supports, and re-runs the quiet fixpoint from the
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
supports, so replaying the exact same firing does not re-emit it — the
historical message semantics of the event log.  A key update that evicts a
derived tuple forgets its supports, so the same firing can re-derive it
once the key is free.  A recompute starts from no supports, so a consumed
message or transient head that the remaining base still derives is back in
the store afterwards, as in the reference evaluator's recompute.

The engine is deliberately single-threaded and deterministic: logical time is
a simple counter, and rule/body iteration order is the program order.  This
determinism is what makes backtesting reproducible.  A scan-based reference
implementation with identical insert-time semantics, ``NaiveEngine``, is the
test suite's cross-check oracle and lives with it
(``tests/ndlog/reference_engine.py``); no repair runs it.

Warm evaluation
---------------

Backtesting replays the same trace against many near-identical programs, and
rebuilding an engine per candidate makes *setup* — not the fixpoint — the
recurring cost.  :meth:`Engine.checkpoint` / :meth:`Engine.restore` snapshot
the complete evaluation state in O(changed) via an undo journal: once a
checkpoint exists, every mutation (tuples, flags, indexes, supports)
appends an inverse entry, and restoring rewinds the journal
instead of copying tables.  Append-only history (events, derivations) is
simply truncated back to the checkpointed lengths.  A rewound engine takes
the next candidate's program through :meth:`Engine.swap_program`, which
re-resolves the plans and touches no tuple: deciding that the checkpointed
state is also the new program's is the caller's job
(:class:`repro.backtest.replay.WarmEvaluationState`), and whoever cannot
decide it builds a fresh engine.
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .ast import Program, Rule, WILDCARD
from .errors import EvaluationError
from .events import (
    APPEAR,
    DELETE,
    DERIVE,
    DISAPPEAR,
    INSERT,
    RECEIVE,
    SEND,
    UNDERIVE,
    DerivationRecord,
    EngineEvent,
)
from .expr import FunctionRegistry
from .plan import CompiledRule, PLAN_CACHE
from .tuples import DERIVED_FLAG, Database, NDTuple, TableSchema


#: One dispatch entry: a plan, the body position it is triggered at, and
#: the entry's place in program order (rules, then body atoms).
_Entry = Tuple[int, CompiledRule, int]


class EngineCheckpoint:
    """Opaque handle to a point-in-time engine state (see
    :meth:`Engine.checkpoint`)."""

    __slots__ = ("engine", "journal_length", "clock", "event_count",
                 "derivation_count", "quiet_firings", "program", "dispatch")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.journal_length = len(engine._journal)
        self.clock = engine.clock
        self.event_count = len(engine.events)
        self.derivation_count = len(engine.derivations)
        self.quiet_firings = engine._quiet_firings
        self.program = engine.program
        # The dispatch table is replaced (never mutated) by _index_rules, so
        # holding a reference makes the restore-side rollback a pointer swap.
        self.dispatch = engine._dispatch


class Engine:
    """Evaluates an NDlog program over a database of tuples."""

    def __init__(self, program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 functions: Optional[FunctionRegistry] = None,
                 record_events: bool = True,
                 max_derivations: int = 1_000_000):
        self.program = program
        self.database = Database(schemas)
        self.functions = functions or FunctionRegistry()
        self.record_events = record_events
        self.max_derivations = max_derivations
        self.clock = 0
        self.events: List[EngineEvent] = []
        self.derivations: List[DerivationRecord] = []
        #: Per-(rule, head) bodies already recorded — O(1) duplicate check.
        self._recorded_bodies: Dict[Tuple[str, NDTuple], Set[Tuple[NDTuple, ...]]] = {}
        #: Firings applied to each derived tuple: {(rule_name, body), ...}
        #: — the firing dedup (module docstring, "Retraction").
        self._supports: Dict[NDTuple, Set[Tuple[str, Tuple[NDTuple, ...]]]] = {}
        #: Rule dispatch (module docstring): per body table ``(residual,
        #: exact)``; read through :meth:`plans_triggered_by`.
        self._dispatch: Dict[str, Tuple[List[_Entry], Dict[
            Tuple[int, ...], Dict[Tuple, List[_Entry]]]]] = {}
        #: Rule firings processed on quiet paths (``record_events=False``
        #: skips the derivation history entirely); stands in for the
        #: ``max_derivations`` runaway guard there, and is checkpointed so a
        #: restore rewinds the budget too.
        self._quiet_firings = 0
        #: Undo journal, shared with the database; ``None`` until the first
        #: :meth:`checkpoint` — non-warm engines pay one None-check per
        #: mutation and nothing else.
        self._journal: Optional[List] = None
        #: Monotone telemetry counters (:meth:`telemetry_counters`) — two
        #: unconditional int adds per fixpoint, deliberately *not*
        #: checkpointed: they report work performed, not logical state, so
        #: a warm-engine restore must not rewind them.
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
        """(Re)assemble the dispatch table for the current program.

        Plans are fetched from the process-global :data:`PLAN_CACHE`: an
        unchanged rule — whether from a program swap, a sibling candidate
        program, or another engine entirely — reuses its binding, a rule that
        differs only in constants binds its shape's compiled code, and the
        guards ride on the plan: assembly files one entry per body atom.  A fresh
        table is assigned rather than the old one cleared: checkpoints hold a
        reference to the previous one, making a restore's rollback a pointer
        swap.
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

    def plans_triggered_by(self, trigger: NDTuple
                           ) -> List[Tuple[CompiledRule, int]]:
        """``(plan, position)`` of every rule ``trigger`` can fire, in
        program order: the unguarded entries of its table merged with the
        buckets whose guard it meets (module docstring, "Rule dispatch")."""
        found = self._dispatch.get(trigger.table)
        if found is None:
            return []
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
        hits = runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))
        return [(plan, position) for _ordinal, plan, position in hits]

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
        if self.record_events:
            self.events.append(EngineEvent(
                kind=kind, time=time, tuple=tup, node=node, rule=rule,
                derivation=derivation, source=source, destination=destination))
        return time

    # ------------------------------------------------------------------
    # Public mutation API
    # ------------------------------------------------------------------

    def insert(self, tup: NDTuple) -> List[NDTuple]:
        """Insert a base tuple, run to fixpoint, and return new derived tuples.

        Transient (non-persistent) tuples — both the inserted one and any
        transient derived heads — are removed from the database after the
        fixpoint, but remain visible in the event log and in the returned
        list, mirroring NDlog's message semantics.
        """
        if not self.record_events:
            # Quiet engines skip the schema/node lookups; the clock still
            # advances by the same amount as the INSERT (+ APPEAR) logs.
            database = self.database
            fresh = database.insert(tup, derived=False)
            self.clock += 2 if fresh else 1
            if not fresh:
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
        schema = self.database.schema(tup.table)
        node = tup.location(schema)
        fresh = self.database.insert(tup, derived=False)
        self._log(INSERT, tup, node=node)
        if fresh:
            self._log(APPEAR, tup, node=node)
            derived = (self._fixpoint([tup]) if self.tracer is None
                       else self._traced_fixpoint(tup))
        else:
            derived = []
        self._cleanup_transients([tup] + derived)
        return derived

    def insert_many(self, tuples: Iterable[NDTuple]) -> List[NDTuple]:
        """Insert several base tuples, running a single fixpoint at the end."""
        inserted = []
        if not self.record_events:
            db_insert = self.database.insert
            for tup in tuples:
                if db_insert(tup, derived=False):
                    inserted.append(tup)
                    self.clock += 2
        else:
            for tup in tuples:
                schema = self.database.schema(tup.table)
                node = tup.location(schema)
                if self.database.insert(tup, derived=False):
                    inserted.append(tup)
                    self._log(INSERT, tup, node=node)
                    self._log(APPEAR, tup, node=node)
        derived = self._fixpoint(inserted)
        self._cleanup_transients(inserted + derived)
        return derived

    def insert_batch(self, tuples: Sequence[NDTuple],
                     consumed_tables: Iterable[str] = ()) -> List[List[NDTuple]]:
        """Insert a batch of base tuples with ONE fixpoint, attributing results.

        Returns one list per batch entry, equivalent to what a sequence of
        :meth:`insert` calls would have returned — but the join work runs in a
        single fixpoint, which is what makes batched ``PacketIn`` handling
        cheaper than per-packet evaluation.

        The equivalence holds only for *batch-order-independent* programs: no
        rule may join two tuples that both descend from batch entries, no
        batch-derivable table may carry a primary key, and batch entries must
        be pairwise distinct.  Callers are responsible for checking this
        (see :func:`repro.controllers.batching.analyze_batch_safety`); the
        engine itself only reconstructs, per entry, which heads a sequential
        insertion at that point would have reported as newly derived.

        ``consumed_tables`` names tables whose tuples the caller drops (via
        :meth:`consume`) between events — e.g. one-shot ``PacketOut`` messages.
        Heads in those tables are re-reported for every batch entry that
        contributes a distinct derivation, matching the sequential behaviour
        where the previous event's message has already been consumed.

        Unlike sequential insertion, the event log records all INSERT/APPEAR
        events up front and does not log re-appearances of consumed heads;
        backtesting controllers run with ``record_events=False``, where the
        logs are identical.
        """
        batch = list(tuples)
        results: List[List[NDTuple]] = [[] for _ in batch]
        if not batch:
            return results
        fresh_list: List[NDTuple] = []
        ready: Dict[NDTuple, int] = {}
        for position, tup in enumerate(batch):
            schema = self.database.schema(tup.table)
            node = tup.location(schema)
            if self.database.insert(tup, derived=False):
                if tup not in ready:
                    ready[tup] = position
                fresh_list.append(tup)
                self._log(INSERT, tup, node=node)
                self._log(APPEAR, tup, node=node)
        fired: List[Tuple[NDTuple, Tuple[NDTuple, ...]]] = []
        newly_derived = self._fixpoint(fresh_list, fired=fired)
        batch_created = set(fresh_list) | set(newly_derived)

        # Earliest batch position at which each tuple becomes derivable: a
        # firing completes once all its batch-descended body members exist.
        # Relax to fixpoint — the joint worklist order is not topological.
        changed = True
        while changed:
            changed = False
            for head, body in fired:
                positions = [ready[member] for member in body if member in ready]
                if not positions:
                    continue
                at = max(positions)
                if at < ready.get(head, len(batch)):
                    ready[head] = at
                    changed = True

        # Group firings by the batch entry that completes them, preserving
        # the joint fixpoint's firing order (which preserves each entry's
        # own sequential derivation order).
        per_entry: List[List[NDTuple]] = [[] for _ in batch]
        for head, body in fired:
            positions = [ready[member] for member in body if member in ready]
            if positions:
                per_entry[max(positions)].append(head)

        # Replay sequential visibility: a head is "newly derived" for the
        # entry at which a sequential insert would have found it absent.
        # Consumed/transient heads leave the store between events, so each
        # entry with a distinct derivation re-reports them.
        consumed = set(consumed_tables)
        live: Set[NDTuple] = set()
        for position in range(len(batch)):
            listed: Set[NDTuple] = set()
            for head in per_entry[position]:
                if head in live or head in listed or head not in batch_created:
                    continue
                results[position].append(head)
                listed.add(head)
                schema = self.database.schema(head.table)
                transient = schema is not None and not schema.persistent
                if head.table not in consumed and not transient:
                    live.add(head)
        self._cleanup_transients(fresh_list + newly_derived)
        return results

    def remove(self, tup: NDTuple) -> List[NDTuple]:
        """Retract a tuple and recompute the derived set from the base.

        Returns the derived tuples that disappeared, in store order, each
        logged UNDERIVE + DISAPPEAR.  Derived flags and supports are dropped
        and the quiet fixpoint re-runs from the remaining base tuples in
        insertion order (module docstring, "Retraction").
        """
        database = self.database
        if not database.contains(tup):
            return []
        node = tup.location(database.schema(tup.table))
        self._log(DELETE, tup, node=node)
        self._log(DISAPPEAR, tup, node=node)
        database.remove(tup)
        before = [t for t, flags in database._flags.items()
                  if flags & DERIVED_FLAG]
        for derived in before:
            database.clear_derived_flag(derived)
        if self._journal is not None:
            self._journal.append(("supswap", self._supports))
        self._supports = {}
        self._rederive_fixpoint(database.base_in_order())
        disappeared = []
        for gone in before:
            if not database.contains(gone):
                node = gone.location(database.schema(gone.table))
                self._log(UNDERIVE, gone, node=node)
                self._log(DISAPPEAR, gone, node=node)
                disappeared.append(gone)
        return disappeared

    def consume(self, tup: NDTuple) -> bool:
        """Drop a message tuple from the database without underiving anything.

        Used by controllers for derived tuples that act as one-shot messages
        (e.g. ``PacketOut``): the tuple leaves the store, but its supports and
        history stay registered, so replaying the exact same firing does not
        re-emit it.  A later :meth:`remove` recomputes from no supports and
        brings the message back if the remaining base still derives it.
        """
        return self.database.remove(tup)

    # ------------------------------------------------------------------
    # Checkpoint / restore / program swap (warm candidate switching)
    # ------------------------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the complete evaluation state in O(1).

        The first checkpoint turns on the undo journal: from then on every
        mutation appends an inverse entry, so :meth:`restore` rewinds in
        O(mutations since the checkpoint) rather than O(database).
        Checkpoints nest (restore to any still-live one); restoring an
        older checkpoint invalidates newer ones.
        """
        if self._journal is None:
            self._journal = []
            self.database.journal = self._journal
        return EngineCheckpoint(self)

    def restore(self, cp: EngineCheckpoint) -> None:
        """Rewind all state to ``cp``: tuples, flags, indexes, supports,
        program/plans, clock and the event/derivation history.  Supports
        come back per firing (``supadd``), per evicted tuple (``suppop``) or
        whole, for a :meth:`remove` in between (``supswap``)."""
        if cp.engine is not self:
            raise EvaluationError("checkpoint belongs to a different engine")
        journal = self._journal
        if journal is None or len(journal) < cp.journal_length:
            raise EvaluationError("checkpoint is no longer restorable")
        database = self.database
        database.journal = None     # undo must not journal itself
        try:
            while len(journal) > cp.journal_length:
                entry = journal.pop()
                kind = entry[0]
                if kind.startswith("db"):
                    database.apply_undo(entry)
                elif kind == "supadd":
                    _, head, key = entry
                    supports = self._supports.get(head)
                    if supports is not None:
                        supports.discard(key)
                        if not supports:
                            del self._supports[head]
                elif kind == "suppop":
                    _, head, old_set = entry
                    self._supports[head] = old_set
                elif kind == "supswap":
                    self._supports = entry[1]
                else:           # pragma: no cover — defensive
                    raise EvaluationError(f"unknown journal entry {kind!r}")
        finally:
            database.journal = journal
        # Append-only history: truncate, unwinding the duplicate check.
        for record in reversed(self.derivations[cp.derivation_count:]):
            recorded = self._recorded_bodies.get((record.rule, record.head))
            if recorded is not None:
                recorded.discard(record.body)
                if not recorded:
                    del self._recorded_bodies[(record.rule, record.head)]
        del self.derivations[cp.derivation_count:]
        del self.events[cp.event_count:]
        self.clock = cp.clock
        self._quiet_firings = cp.quiet_firings
        if self.program is not cp.program:
            self.program = cp.program
            self._dispatch = cp.dispatch

    def swap_program(self, program: Program) -> None:
        """Evaluate ``program`` from here on, over the state as it stands.

        Only the plans change: no tuple is retracted, nothing is re-derived.
        That is right exactly when the current state is also the one
        ``program`` would have reached over the same base tuples — e.g.
        every rule in which the two programs differ needs a tuple of a
        table that is still empty — and establishing that is the caller's
        job (:class:`repro.backtest.replay.WarmEvaluationState` does, and
        builds a fresh engine when it cannot).  :meth:`restore` to a
        checkpoint taken under another program swaps back.

        Plans come from the shared plan cache, so the rules
        ``program`` shares with the current one cost a dictionary hit and one
        dispatch entry per body atom each (:meth:`_index_rules`); making that
        assembly proportional to the rules that differ is the one place to
        do it.  What a tuple then costs no longer depends on the rule count
        (:meth:`plans_triggered_by`).
        """
        self.program = program
        self._index_rules()

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

    def _fixpoint(self, delta: Sequence[NDTuple],
                  fired: Optional[List[Tuple[NDTuple, Tuple[NDTuple, ...]]]] = None
                  ) -> List[NDTuple]:
        worklist = deque(delta)
        newly_derived: List[NDTuple] = []
        supports = self._supports
        database = self.database
        journal = self._journal
        functions = self.functions
        recording = self.record_events
        dispatch = self._dispatch
        plans_triggered_by = self.plans_triggered_by
        limit = self.max_derivations
        while worklist:
            trigger = worklist.popleft()
            if trigger.table not in dispatch:
                continue        # no rule reads its table (e.g. a flow head)
            batch = (trigger,)
            for plan, position in plans_triggered_by(trigger):
                # fire() returns its complete list before any firing below
                # is applied, so every join in it reads one database state.
                for head, body, bindings in plan.fire(
                        position, batch, database, functions, recording):
                    key = (plan.name, body)
                    head_supports = supports.setdefault(head, set())
                    size = len(head_supports)
                    head_supports.add(key)
                    if len(head_supports) == size:
                        # Exact duplicate firing: nothing new to derive.
                        continue
                    if journal is not None:
                        journal.append(("supadd", head, key))
                    if fired is not None:
                        fired.append((head, body))
                    is_new = not database.contains(head)
                    if recording:
                        record = self._record_derivation(plan.rule, head,
                                                         body, bindings)
                        if record is None and is_new:
                            # Re-derivation of a previously deleted tuple:
                            # the historical record already exists, but the
                            # tuple reappears now.
                            self._log(APPEAR, head,
                                      node=head.location(
                                          database.schema(head.table)),
                                      rule=plan.name)
                    else:
                        self._quiet_firings += 1
                        if self._quiet_firings > limit:
                            raise EvaluationError(
                                f"derivation limit of {limit} exceeded; "
                                "the program is probably not terminating")
                    database.insert(head, derived=True)
                    if is_new:
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

        ``rules_fired`` unifies the quiet counter with the recorded
        derivation history so the number means the same thing for quiet
        and recording engines.  Cheap enough to sample per replay slice.
        """
        return {
            "engine_fixpoints": self.fixpoint_count,
            "tuples_derived": self.tuples_derived_total,
            "rules_fired": self._quiet_firings + len(self.derivations),
            "index_materializations": self.database.index_materializations,
        }

    def _rederive_fixpoint(self, delta: Sequence[NDTuple]):
        """The quiet fixpoint behind :meth:`remove`'s recompute.

        Registers supports and inserts derived tuples without appending to
        the event log or the derivation history (matching the silent
        recompute of the reference evaluator).
        """
        database = self.database
        functions = self.functions
        dispatch = self._dispatch
        supports = self._supports
        journal = self._journal
        frontier = list(delta)
        while frontier:
            # Semi-naive delta round: batch the frontier per table and fire
            # each consuming plan once over the whole batch.
            by_table: Dict[str, List[NDTuple]] = {}
            for tup in frontier:
                by_table.setdefault(tup.table, []).append(tup)
            frontier = []
            for table, batch in by_table.items():
                # A batch is offered to every plan of its table, in program
                # order: guards select per tuple, and fire checks them anyway.
                residual, exact = dispatch.get(table, ((), {}))
                for _ordinal, plan, position in sorted(chain(
                        residual, *(bucket for buckets in exact.values()
                                    for bucket in buckets.values()))):
                    for head, body, _bindings in plan.fire(
                            position, batch, database, functions, False):
                        key = (plan.name, body)
                        head_supports = supports.setdefault(head, set())
                        size = len(head_supports)
                        head_supports.add(key)
                        if len(head_supports) == size:
                            continue
                        if journal is not None:
                            journal.append(("supadd", head, key))
                        if database.insert(head, derived=True):
                            frontier.append(head)

    def _on_evicted(self, tup: NDTuple):
        """A primary-key update evicted ``tup``: forget its supports so the
        same firing can re-derive it once the key is free again."""
        popped = self._supports.pop(tup, None)
        if popped is not None and self._journal is not None:
            self._journal.append(("suppop", tup, popped))

    def _record_derivation(self, rule: Rule, head: NDTuple,
                           body: Tuple[NDTuple, ...], bindings):
        if len(self.derivations) >= self.max_derivations:
            raise EvaluationError(
                f"derivation limit of {self.max_derivations} exceeded; "
                "the program is probably not terminating")
        # Avoid recording the exact same firing twice (O(1) set lookup).
        recorded = self._recorded_bodies.setdefault((rule.name, head), set())
        if body in recorded:
            return None
        recorded.add(body)
        record = DerivationRecord(
            rule=rule.name,
            head=head,
            body=body,
            bindings=bindings,
            time=self.clock + 1,
            node=head.location(self.database.schema(head.table)),
        )
        self.derivations.append(record)
        head_node = record.node
        trigger_node = body[0].location(self.database.schema(body[0].table)) if body else None
        if body and head_node is not None and trigger_node is not None and head_node != trigger_node:
            self._log(SEND, head, node=trigger_node, rule=rule.name,
                      source=trigger_node, destination=head_node)
            self._log(RECEIVE, head, node=head_node, rule=rule.name,
                      source=trigger_node, destination=head_node)
        self._log(DERIVE, head, node=head_node, rule=rule.name, derivation=record)
        if not self.database.contains(head):
            self._log(APPEAR, head, node=head_node, rule=rule.name)
        return record

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


def evaluate_program(program: Program, base_tuples: Iterable[NDTuple],
                     schemas: Optional[Dict[str, TableSchema]] = None) -> Engine:
    """Convenience helper: build an engine, insert all base tuples, return it."""
    engine = Engine(program, schemas=schemas)
    engine.insert_many(list(base_tuples))
    return engine
