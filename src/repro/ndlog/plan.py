"""Compiled rule plans and the shared plan cache.

This module is the compilation layer of the engine core: each NDlog rule is
translated once into specialized Python *fire functions* (one per trigger
position) that process a whole batch of trigger tuples per call, probing the
database's ``(column, value)`` hash indexes.  Compilation is keyed by the
rule's **structural digest** (the canonical ``to_ndlog()`` text), so the
thousands of near-identical candidate programs of a repair corpus share
almost all compiled plans through the process-global :data:`PLAN_CACHE` —
switching candidates compiles only the edited rules, and cold-building a
candidate engine compiles nothing that any earlier program already used.

Semantics of a fire function (atom matching is the same strict match as
:func:`repro.ndlog.expr.match_atom`):

* constant arguments and variable joins use **strict** equality; wildcard
  values are ordinary values during matching,
* selection predicates are wildcard-aware (``==``/``!=`` via
  :func:`repro.ndlog.expr.values_equal` semantics, ordered comparisons fail
  against wildcards) and are pushed down to the first join depth where their
  variables are bound,
* a pushed selection that raises :class:`EvaluationError` is *deferred*: the
  branch survives and the selection is re-evaluated in the finish stage,
  where the error propagates only for joins that actually complete,
* assignments and remaining selections run in the finish stage in
  relaxation (round-robin by index) order, and the head is built last,
* body atoms are joined in program order around the trigger, and candidate
  enumeration probes :meth:`Database.candidates` with constants first, then
  bound variable columns in first-occurrence order, which fixes the bucket
  choice and hence the firing order.

Guards.  Beside its fire functions a plan carries, per trigger position, the
*guard* a trigger tuple must satisfy before the rule can fire from there: the
``(column, constant)`` pairs of the trigger atom's constant arguments and of
every pushed-down ``Var == Const`` / ``Const == Var`` selection whose
variable is a direct argument of that atom.  The engine buckets its plans by
guard and offers a tuple only to the rules whose guard it meets
(:meth:`repro.ndlog.engine.Engine.plans_triggered_by`).  A guard is only ever
a *pre-filter*: the fire function still performs every check, so all a guard
must guarantee is that a tuple failing it would have left ``fire`` empty-handed
and unobserved.  Hence what deliberately is **not** a guard:

* a selection on an assignment target (not pushable: the assignment, not the
  atom, binds the variable) or on a variable bound by another atom,
* a ``WILDCARD`` constant (it admits every value),
* ``!=`` and the ordered comparisons (they bound a value, not name it),
* any selection that ``fire`` reaches only after an expression that could
  call a function or divide (:func:`_may_escape`) — an expression argument
  of the trigger atom, or an earlier selection on the trigger's variables:
  skipping the rule would skip a side effect (``f_unique``) or an error that
  is not an :class:`EvaluationError` and so is never deferred.

A trigger value equal to ``WILDCARD`` meets every selection guard, as
``values_equal`` has it; the engine also lets it past constant-argument
guards, which ``fire`` then rejects strictly — a superset is all dispatch owes.

Invariant: every fire call completes before the engine mutates the database.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Tuple

from .ast import (ARITHMETIC_OPERATORS, COMPARISON_OPERATORS, Atom, BinOp,
                  Const, Expression, FuncCall, Rule, Var, WILDCARD)
from .errors import EvaluationError
from .expr import _arith, _compare
from .tuples import NDTuple


class _Unresolvable(Exception):
    """A variable is statically never bound on this code path."""

    def __init__(self, name):
        self.name = name
        super().__init__(name)


def rule_digest(rule: Rule) -> str:
    """Structural digest of a rule: sha1 of its canonical NDlog text.

    ``to_ndlog()`` renders the full structure (name, head, body atoms,
    selections, assignments) and round-trips through the parser, so equal
    digests imply structurally equal rules.  A rule is rendered and hashed
    once, however many programs share it.
    """
    return rule.memo("digest", _sha1_of_text)


def _sha1_of_text(rule: Rule) -> str:
    return hashlib.sha1(rule.to_ndlog().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def _lit(value, pool: List) -> str:
    """Literal code for a constant, falling back to the per-rule pool."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    pool.append(value)
    return f"_K[{len(pool) - 1}]"


def _emit_expr(expr: Expression, env: Dict[str, str],
               pool: List) -> Tuple[str, bool]:
    """Compile ``expr`` to a Python expression string.

    ``env`` maps NDlog variable names to local slot names; every
    subexpression is emitted exactly once (single evaluation, left-to-right
    — matching :func:`repro.ndlog.expr.evaluate`).  Returns ``(code,
    can_raise)``; raises :class:`_Unresolvable` when the expression reads a
    variable with no slot.
    """
    if isinstance(expr, Const):
        return _lit(expr.value, pool), False
    if isinstance(expr, Var):
        slot = env.get(expr.name)
        if slot is None:
            raise _Unresolvable(expr.name)
        return slot, False
    if isinstance(expr, BinOp):
        left, left_raises = _emit_expr(expr.left, env, pool)
        right, right_raises = _emit_expr(expr.right, env, pool)
        simple = (isinstance(expr.left, (Const, Var))
                  and isinstance(expr.right, (Const, Var)))
        if expr.op == "==" and simple:
            # values_equal: wildcards match anything, otherwise plain ==.
            return f"({left} == _W or {right} == _W or {left} == {right})", \
                False
        if expr.op == "!=" and simple:
            return (f"({left} != _W and {right} != _W "
                    f"and {left} != {right})"), False
        if expr.op in COMPARISON_OPERATORS:
            return f"_cmp({expr.op!r}, {left}, {right})", True
        if expr.op in ARITHMETIC_OPERATORS:
            return f"_ar({expr.op!r}, {left}, {right})", True
        return f"_cmp({expr.op!r}, {left}, {right})", True
    if isinstance(expr, FuncCall):
        args = []
        for arg in expr.args:
            code, _ = _emit_expr(arg, env, pool)
            args.append(code)
        return f"_fn({expr.name!r})({', '.join(args)})", True
    raise EvaluationError(
        f"cannot evaluate expression of type {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------


class _Emitter:
    """Tiny indented source builder."""

    def __init__(self):
        self.lines: List[str] = []

    def w(self, depth: int, text: str):
        self.lines.append("    " * depth + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _atom_layout(atom: Atom):
    """Matching layout of one body atom: ``consts`` are ``(column, value)``
    checks, ``steps`` the ``('v', column, name)`` / ``('e', column, expr)``
    arguments in column order, ``var_columns`` the first column of each
    variable (the index-probe constraints)."""
    consts = []
    steps = []
    var_columns = []
    seen = set()
    for column, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            consts.append((column, arg.value))
        elif isinstance(arg, Var):
            steps.append(("v", column, arg.name))
            if arg.name not in seen:
                seen.add(arg.name)
                var_columns.append((column, arg.name))
        else:
            steps.append(("e", column, arg))
    return consts, steps, var_columns


def _may_escape(expr: Expression) -> bool:
    """Could evaluating ``expr`` be observed other than through its value or
    a (deferred) :class:`EvaluationError` — a function call, or the
    ``ZeroDivisionError`` of ``/`` and ``%``?"""
    if isinstance(expr, FuncCall):
        return True
    if isinstance(expr, BinOp):
        return (expr.op in ("/", "%") or _may_escape(expr.left)
                or _may_escape(expr.right))
    return False


def _trigger_guard(consts, steps, var_columns, selections, sel_vars,
                   pushable):
    """The guard of one trigger position (module docstring): ``(columns,
    values)`` in column order, or ``None`` when any tuple may fire the rule.

    Walks the checks in the order the fire function makes them on a trigger
    — constants, arguments, then the pushed selections over the atom's
    variables by index — and stops where one could escape."""
    required = {column: value for column, value in consts
                if value != WILDCARD}
    columns = {name: column for column, name in var_columns}
    if not any(kind == "e" and _may_escape(payload)
               for kind, _column, payload in steps):
        for selection, vars_, pushed in zip(selections, sel_vars, pushable):
            if not pushed or not vars_ <= columns.keys():
                continue
            expr = selection.expr
            if _may_escape(expr):
                break
            left, right = expr.left, expr.right
            if isinstance(left, Const):
                left, right = right, left
            if (expr.op == "==" and isinstance(left, Var)
                    and isinstance(right, Const) and right.value != WILDCARD):
                required.setdefault(columns[left.name], right.value)
    if not required:
        return None
    ordered = sorted(required)
    return tuple(ordered), tuple(required[column] for column in ordered)


class CompiledRule:
    """A rule compiled to per-trigger-position batch fire functions."""

    __slots__ = ("rule", "name", "digest", "head_table", "body_tables",
                 "guards", "source", "_fires")

    def __init__(self, rule: Rule):
        for body_atom in rule.body:
            if body_atom.negated:
                raise EvaluationError(
                    f"rule {rule.name!r}: negated atom "
                    f"!{body_atom.table} is not supported by the evaluator")
        self.rule = rule
        self.name = rule.name
        self.digest = rule_digest(rule)
        self.head_table = rule.head.table
        self.body_tables = tuple(atom.table for atom in rule.body)
        self._compile()

    def fire(self, position: int, triggers, database, functions, record):
        """All firings of the rule with each trigger at ``position``.

        Returns ``[(head, body, bindings_or_None), ...]``; ``bindings`` is a
        name-sorted tuple of ``(var, value)`` pairs when ``record`` is
        truthy, else ``None``.  The caller applies the firings only after
        this returns (the module invariant).
        """
        return self._fires[position](triggers, database, functions, record)

    # -- compilation -------------------------------------------------------

    def _compile(self):
        rule = self.rule
        atoms = [(atom,) + _atom_layout(atom) for atom in rule.body]
        assigned = {a.var for a in rule.assignments}
        sel_vars = [frozenset(s.variables()) for s in rule.selections]
        pushable = [not (vars_ & assigned) for vars_ in sel_vars]
        #: Per trigger position, what a tuple must hold for the rule to fire
        #: from there (see the module docstring); the engine dispatches on it.
        self.guards = tuple(
            _trigger_guard(consts, steps, var_columns, rule.selections,
                           sel_vars, pushable)
            for _atom, consts, steps, var_columns in atoms)

        # Deterministic slot per body-bound variable (direct Var args only).
        slots: Dict[str, str] = {}
        for _atom, _consts, steps, _vc in atoms:
            for kind, _column, payload in steps:
                if kind == "v" and payload not in slots:
                    slots[payload] = f"_b{len(slots)}"

        pool: List = []
        emitter = _Emitter()
        emitter.w(0, f"# {rule.to_ndlog()}")
        for position in range(len(atoms)):
            self._emit_fire(emitter, position, atoms, slots, assigned,
                            sel_vars, pushable, pool)
        names = ", ".join(f"_fire{p}" for p in range(len(atoms)))
        if len(atoms) == 1:
            names += ","
        emitter.w(0, f"_FIRES = ({names})")
        self.source = emitter.source()
        namespace = {
            "NDTuple": NDTuple,
            "_cmp": _compare,
            "_ar": _arith,
            "_W": WILDCARD,
            "EvaluationError": EvaluationError,
            "_K": tuple(pool),
        }
        exec(compile(self.source, f"<plan:{rule.name}>", "exec"), namespace)
        self._fires = namespace["_FIRES"]

    def _emit_fire(self, emitter, position, atoms, slots, assigned,
                   sel_vars, pushable, pool):
        join_order = [i for i in range(len(atoms)) if i != position]
        try:
            body_lines = _Emitter()
            self._emit_fire_body(body_lines, position, atoms, slots,
                                 assigned, sel_vars, pushable, pool,
                                 join_order)
        except _Unresolvable:
            # A variable needed by an atom argument, selection, assignment
            # or the head is never bound on this path: the rule can never
            # fire from this trigger position.
            emitter.w(0, f"def _fire{position}(_triggers, _db, _functions, "
                         f"_record):")
            emitter.w(1, "return []")
            return
        emitter.w(0, f"def _fire{position}(_triggers, _db, _functions, "
                     f"_record):")
        emitter.lines.extend(body_lines.lines)

    def _emit_fire_body(self, out, position, atoms, slots, assigned,
                        sel_vars, pushable, pool, join_order):
        rule = self.rule
        selections = rule.selections
        out.w(1, "_out = []")
        out.w(1, "_ap = _out.append")
        out.w(1, "_cand = _db.candidates")
        out.w(1, "_fn = _functions.lookup")
        out.w(1, f"for _a{position} in _triggers:")

        env: Dict[str, str] = {}
        emitted_sel = set()
        deferred_flags = set()
        depth = 2

        def emit_selections(depth):
            # Pushed-down selections, index order, at the first depth where
            # their variables are bound.
            for index, vars_ in enumerate(sel_vars):
                if index in emitted_sel or not pushable[index]:
                    continue
                if not vars_ <= env.keys():
                    continue
                emitted_sel.add(index)
                code, can_raise = _emit_expr(selections[index].expr, env,
                                             pool)
                if can_raise:
                    deferred_flags.add(index)
                    out.w(depth, "try:")
                    out.w(depth + 1, f"if not {code}:")
                    out.w(depth + 2, "continue")
                    out.w(depth + 1, f"_d{index} = False")
                    out.w(depth, "except EvaluationError:")
                    out.w(depth + 1, f"_d{index} = True")
                else:
                    out.w(depth, f"if not {code}:")
                    out.w(depth + 1, "continue")

        def emit_match(atom_index, depth):
            atom, consts, steps, _vc = atoms[atom_index]
            out.w(depth, f"_v{atom_index} = _a{atom_index}.values")
            out.w(depth, f"if len(_v{atom_index}) != {len(atom.args)}:")
            out.w(depth + 1, "continue")
            for column, value in consts:
                out.w(depth, f"if _v{atom_index}[{column}] != "
                             f"{_lit(value, pool)}:")
                out.w(depth + 1, "continue")
            for kind, column, payload in steps:
                if kind == "v":
                    slot = slots[payload]
                    if payload in env:
                        out.w(depth, f"if {slot} != _v{atom_index}[{column}]:")
                        out.w(depth + 1, "continue")
                    else:
                        out.w(depth, f"{slot} = _v{atom_index}[{column}]")
                        env[payload] = slot
                else:
                    # Expression argument: evaluate under the bindings so
                    # far; an evaluation error is a non-match.
                    code, _ = _emit_expr(payload, env, pool)
                    temp = f"_e{atom_index}_{column}"
                    out.w(depth, "try:")
                    out.w(depth + 1, f"{temp} = {code}")
                    out.w(depth, "except EvaluationError:")
                    out.w(depth + 1, "continue")
                    out.w(depth, f"if {temp} != _v{atom_index}[{column}]:")
                    out.w(depth + 1, "continue")

        emit_match(position, depth)
        emit_selections(depth)
        for atom_index in join_order:
            atom, consts, _steps, var_columns = atoms[atom_index]
            constraints = [f"({column}, {_lit(value, pool)})"
                           for column, value in consts]
            constraints += [f"({column}, {env[name]})"
                            for column, name in var_columns if name in env]
            literal = "(" + ", ".join(constraints) + \
                (",)" if len(constraints) == 1 else ")")
            # The live index bucket is iterated in place: nothing mutates
            # the database until this fire call has returned.
            out.w(depth, f"for _a{atom_index} in "
                         f"_cand({atom.table!r}, {literal}):")
            depth += 1
            emit_match(atom_index, depth)
            emit_selections(depth)

        # ---- finish stage: assignments + remaining selections, in
        # relaxation order, then the head. ----
        known = set(env)
        assignment_vars = [frozenset(a.expr.variables())
                           for a in rule.assignments]
        pending_a = list(range(len(rule.assignments)))
        pending_s = [i for i in range(len(selections))
                     if not pushable[i] or i in deferred_flags]
        # Pushable selections whose variables never bind make the rule
        # unfireable from any position: left pending, they reach the
        # _Unresolvable below.
        pending_s += [i for i in range(len(selections))
                      if pushable[i] and i not in emitted_sel]
        pending_s.sort()
        fresh = 0
        progress = True
        while progress and (pending_a or pending_s):
            progress = False
            for index in list(pending_a):
                if assignment_vars[index] <= known:
                    assignment = rule.assignments[index]
                    code, _ = _emit_expr(assignment.expr, env, pool)
                    slot = f"_f{fresh}"
                    fresh += 1
                    out.w(depth, f"{slot} = {code}")
                    env[assignment.var] = slot
                    known.add(assignment.var)
                    pending_a.remove(index)
                    progress = True
            for index in list(pending_s):
                if sel_vars[index] <= known:
                    code, _ = _emit_expr(selections[index].expr, env, pool)
                    if index in deferred_flags:
                        out.w(depth, f"if _d{index} and not ({code}):")
                    else:
                        out.w(depth, f"if not {code}:")
                    out.w(depth + 1, "continue")
                    pending_s.remove(index)
                    progress = True
        if pending_a or pending_s:
            raise _Unresolvable("<pending>")

        head_values = []
        for arg in rule.head.args:
            if isinstance(arg, Var):
                slot = env.get(arg.name)
                if slot is None:
                    raise _Unresolvable(arg.name)
                head_values.append(slot)
            else:
                code, _ = _emit_expr(arg, env, pool)
                head_values.append(code)
        head_literal = "(" + ", ".join(head_values) + \
            (",)" if len(head_values) == 1 else ")")
        out.w(depth, f"_h = NDTuple({rule.head.table!r}, {head_literal})")
        body_vars = ", ".join(f"_a{i}" for i in range(len(atoms)))
        if len(atoms) == 1:
            body_vars += ","
        pairs = "".join(f"({name!r}, {env[name]}), "
                        for name in sorted(env))
        out.w(depth, f"_ap((_h, ({body_vars}), "
                     f"(({pairs})) if _record else None))")
        out.w(1, "return _out")


# ---------------------------------------------------------------------------
# Shared plan cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Process-global LRU of compiled rule plans, keyed by structural digest.

    Plans are engine-stateless (the database, function registry and
    record flag are call arguments), so one cache serves every engine in
    the process — across the candidate corpus of one backtest and across
    jobs inside a distributed worker's ``RuntimeCache``.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._plans: "OrderedDict[str, CompiledRule]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, rule: Rule) -> CompiledRule:
        digest = rule_digest(rule)
        plan = self._plans.get(digest)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(digest)
            return plan
        self.misses += 1
        plan = CompiledRule(rule)
        self._plans[digest] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
        return plan

    def __len__(self):
        return len(self._plans)

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._plans), "capacity": self.capacity}

    def clear(self):
        self._plans.clear()
        self.hits = 0
        self.misses = 0


#: The process-global plan cache (see :class:`PlanCache`).
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> Dict[str, int]:
    """Stats of the process-global plan cache (hits/misses/size)."""
    return PLAN_CACHE.stats()
