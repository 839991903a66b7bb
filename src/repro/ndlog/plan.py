"""Compiled rule plans and the shared plan cache.

This module is the compilation layer of the engine core: each NDlog rule runs
as specialized Python *fire functions* (one per trigger position) that
process a whole batch of trigger tuples per call, probing the database's
``(column, value)`` hash indexes.  The **code** is compiled once per rule
*shape* (:func:`rule_shape`) into a factory whose parameters are the rule's
constants; the **binding** (:class:`CompiledRule`), made once per rule, holds
its name, guards and fire functions, which take each constant as a default
argument: an inner loop reads it from a fast local.  The process-global
:data:`PLAN_CACHE` holds both levels, so a candidate that changes only a
constant, or a 250-rule program of two shapes, compiles no new code.

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

from collections import OrderedDict
from itertools import count
from typing import Dict, List, Tuple

from .ast import (ARITHMETIC_OPERATORS, Assignment, Atom, BinOp, Const,
                  Expression, FuncCall, Rule, Selection, Var, WILDCARD)
from .errors import EvaluationError
from .expr import _arith, _compare
from .tuples import NDTuple


class _Unresolvable(Exception):
    """A variable is statically never bound on this code path."""


def rule_shape(rule: Rule):
    """``(shape, constants)`` of ``rule``, walked once per rule value.

    ``shape`` is nested tuples of the structure without the rule's name: its
    atoms, head first, each ``(table, location_index, args)``, its
    selections and its assignments ``(var, expr)``, where a variable is its
    name, a constant ``type(value)``, an operation ``(op, left, right)`` and
    a call ``(FuncCall, name, args)``; ``constants`` are the values in walk
    order.  The type keeps ``1``, ``True``, ``1.0`` and ``"1"`` apart."""
    (_name, shape, constants), = _binding_key(rule)
    return shape, constants


def _binding_key(rule: Rule) -> frozenset:
    """``{(name, shape, constants)}``: a frozenset hashes once, where a tuple
    would rehash its nested items on each of a session's lookups."""
    return rule.memo("shape", _walk)


def _walk(rule: Rule) -> frozenset:
    constants = []
    atoms = tuple([(atom.table, atom.location_index, tuple([
        arg.name if arg.__class__ is Var else _expr_shape(arg, constants)
        for arg in atom.args])) for atom in (rule.head,) + rule.body])
    shape = (atoms, tuple([_expr_shape(selection.expr, constants)
                           for selection in rule.selections]),
             tuple([(assignment.var, _expr_shape(assignment.expr, constants))
                    for assignment in rule.assignments]))
    return frozenset([(rule.name, shape, tuple(constants))])


def _expr_shape(expr: Expression, constants: List):
    cls = expr.__class__
    if cls is Var:
        return expr.name
    if cls is Const:
        constants.append(expr.value)
        return type(expr.value)
    if cls is BinOp:
        return (expr.op, _expr_shape(expr.left, constants),
                _expr_shape(expr.right, constants))
    if cls is FuncCall:
        return FuncCall, expr.name, tuple([_expr_shape(arg, constants)
                                           for arg in expr.args])
    raise EvaluationError(
        f"cannot evaluate expression of type {cls.__name__}")


def _template(shape) -> Rule:
    """The nameless rule of ``shape`` whose constants hold their index."""
    index = count()

    def node(key):
        if key.__class__ is str:
            return Var(key)
        if isinstance(key, type):
            return Const(next(index))       # numbered in the walk's order
        if key[0] is FuncCall:
            return FuncCall(key[1], tuple(map(node, key[2])))
        return BinOp(key[0], node(key[1]), node(key[2]))

    atoms, selections, assignments = shape
    head, *body = [Atom(table, tuple(map(node, args)), location_index)
                   for table, location_index, args in atoms]
    return Rule("", head, body, [Selection(node(key)) for key in selections],
                [Assignment(var, node(key)) for var, key in assignments])


# ---------------------------------------------------------------------------
# Shape compilation
# ---------------------------------------------------------------------------


def _emit_expr(expr: Expression, env: Dict[str, str]) -> Tuple[str, bool]:
    """``(code, can_raise)`` of template ``expr``: each subexpression once,
    left to right, as :func:`repro.ndlog.expr.evaluate` has it.  ``env`` maps
    NDlog variables to local slots; one with none raises
    :class:`_Unresolvable`."""
    if isinstance(expr, Const):
        return f"_k{expr.value}", False
    if isinstance(expr, Var):
        slot = env.get(expr.name)
        if slot is None:
            raise _Unresolvable(expr.name)
        return slot, False
    if isinstance(expr, BinOp):
        left, _ = _emit_expr(expr.left, env)
        right, _ = _emit_expr(expr.right, env)
        simple = (isinstance(expr.left, (Const, Var))
                  and isinstance(expr.right, (Const, Var)))
        if expr.op == "==" and simple:
            # values_equal: wildcards match anything, otherwise plain ==.
            return (f"({left} == _W or {right} == _W "
                    f"or {left} == {right})"), False
        if expr.op == "!=" and simple:
            return (f"({left} != _W and {right} != _W "
                    f"and {left} != {right})"), False
        if expr.op in ARITHMETIC_OPERATORS:
            return f"_ar({expr.op!r}, {left}, {right})", True
        return f"_cmp({expr.op!r}, {left}, {right})", True
    args = [_emit_expr(arg, env)[0] for arg in expr.args]
    return f"_fn({expr.name!r})({', '.join(args)})", True


def _tuple_code(items: List[str]) -> str:
    return "(" + ", ".join(items) + (",)" if len(items) == 1 else ")")


class _Emitter:
    """Tiny indented source builder."""

    def __init__(self):
        self.lines: List[str] = []

    def w(self, depth: int, text: str):
        self.lines.append("    " * depth + text)


def _atom_layout(atom: Atom):
    """Matching layout of one body atom: ``consts`` are ``(column, index)``
    checks, ``steps`` the ``('v', column, name)`` / ``('e', column, expr)``
    arguments in column order, ``var_columns`` the first column of each
    variable (the index-probe constraints)."""
    consts, steps, var_columns, seen = [], [], [], set()
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


def _guard_recipe(consts, steps, var_columns, selections, sel_vars,
                  pushable):
    """The guard recipe of one trigger position (module docstring):
    ``(column, constant index)`` pairs, or ``None`` when there are none.

    Walks the checks in the order the fire function makes them on a trigger
    — constants, arguments, then the pushed selections over the atom's
    variables by index — and stops where one could escape."""
    recipe = list(consts)
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
                    and isinstance(right, Const)):
                recipe.append((columns[left.name], right.value))
    return tuple(recipe) or None


def _guard(recipe, constants):
    """A binding's guard: ``(columns, values)`` in column order, the first
    non-wildcard constant per column, or ``None`` when any tuple may fire."""
    required = {}
    for column, index in recipe:
        if constants[index] != WILDCARD:
            required.setdefault(column, constants[index])
    ordered = sorted(required)
    return ((tuple(ordered), tuple(map(required.__getitem__, ordered)))
            if required else None)


def _compile(rule: Rule):
    """Compile the code of ``rule``'s shape: ``(make, body_tables,
    recipes)``, where ``make(*constants)`` returns the fire functions of a
    rule of that shape and ``recipes`` are its guard recipes by position."""
    shape, constants = rule_shape(rule)
    template = _template(shape)
    atoms = [(atom,) + _atom_layout(atom) for atom in template.body]
    assigned = {a.var for a in template.assignments}
    sel_vars = [frozenset(s.variables()) for s in template.selections]
    pushable = [not (vars_ & assigned) for vars_ in sel_vars]
    recipes = tuple(
        _guard_recipe(consts, steps, var_columns, template.selections,
                      sel_vars, pushable)
        for _atom, consts, steps, var_columns in atoms)

    # Deterministic slot per body-bound variable (direct Var args only).
    slots: Dict[str, str] = {}
    for _atom, _consts, steps, _vc in atoms:
        for kind, _column, payload in steps:
            if kind == "v" and payload not in slots:
                slots[payload] = f"_b{len(slots)}"

    params = [f"_k{index}" for index in range(len(constants))]
    defaults = "".join(f", {param}={param}" for param in params)
    emitter = _Emitter()
    emitter.w(0, f"def _make({', '.join(params)}):")
    for position in range(len(atoms)):
        body = _Emitter()
        try:
            _emit_fire_body(body, template, position, atoms, slots, sel_vars,
                            pushable)
        except _Unresolvable:
            # A variable some argument, selection, assignment or the head
            # needs is never bound: the rule cannot fire from this position.
            body = _Emitter()
            body.w(1, "return []")
        emitter.w(1, f"def _fire{position}(_triggers, _db, _functions"
                     f"{defaults}):")
        emitter.lines.extend("    " + line for line in body.lines)
    emitter.w(1, "return " + _tuple_code(
        [f"_fire{position}" for position in range(len(atoms))]))
    namespace = {"NDTuple": NDTuple, "_nt": tuple.__new__, "_cmp": _compare,
                 "_ar": _arith, "_W": WILDCARD,
                 "EvaluationError": EvaluationError}
    exec(compile("\n".join(emitter.lines) + "\n", "<rule plan>", "exec"),
         namespace)
    return (namespace["_make"], tuple(atom.table for atom in template.body),
            recipes)


def _emit_fire_body(out, rule, position, atoms, slots, sel_vars, pushable):
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
            if (index in emitted_sel or not pushable[index]
                    or not vars_ <= env.keys()):
                continue
            emitted_sel.add(index)
            code, can_raise = _emit_expr(selections[index].expr, env)
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
        for column, index in consts:
            out.w(depth, f"if _v{atom_index}[{column}] != _k{index}:")
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
                # Expression argument: evaluate under the bindings so far;
                # an evaluation error is a non-match.
                code, _ = _emit_expr(payload, env)
                temp = f"_e{atom_index}_{column}"
                out.w(depth, "try:")
                out.w(depth + 1, f"{temp} = {code}")
                out.w(depth, "except EvaluationError:")
                out.w(depth + 1, "continue")
                out.w(depth, f"if {temp} != _v{atom_index}[{column}]:")
                out.w(depth + 1, "continue")

    emit_match(position, depth)
    emit_selections(depth)
    for atom_index in (i for i in range(len(atoms)) if i != position):
        atom, consts, _steps, var_columns = atoms[atom_index]
        literal = _tuple_code(
            [f"({column}, _k{index})" for column, index in consts]
            + [f"({column}, {env[name]})"
               for column, name in var_columns if name in env])
        # The live index bucket is iterated in place: nothing mutates
        # the database until this fire call has returned.
        out.w(depth, f"for _a{atom_index} in "
                     f"_cand({atom.table!r}, {literal}):")
        depth += 1
        emit_match(atom_index, depth)
        emit_selections(depth)

    # ---- finish stage: assignments + remaining selections, in
    # relaxation order, then the head. ----
    assignment_vars = [frozenset(a.expr.variables())
                       for a in rule.assignments]
    pending_a = list(range(len(rule.assignments)))
    # Pushable selections whose variables never bind make the rule
    # unfireable from any position: left pending, they reach the
    # _Unresolvable below.
    pending_s = [i for i in range(len(selections)) if not pushable[i]
                 or i in deferred_flags or i not in emitted_sel]
    progress = True
    while progress and (pending_a or pending_s):
        progress = False
        for index in list(pending_a):
            if assignment_vars[index] <= env.keys():
                assignment = rule.assignments[index]
                code, _ = _emit_expr(assignment.expr, env)
                out.w(depth, f"_f{index} = {code}")
                env[assignment.var] = f"_f{index}"
                pending_a.remove(index)
                progress = True
        for index in list(pending_s):
            if sel_vars[index] <= env.keys():
                code, _ = _emit_expr(selections[index].expr, env)
                if index in deferred_flags:
                    out.w(depth, f"if _d{index} and not ({code}):")
                else:
                    out.w(depth, f"if not {code}:")
                out.w(depth + 1, "continue")
                pending_s.remove(index)
                progress = True
    if pending_a or pending_s:
        raise _Unresolvable("<pending>")

    head_values = [_emit_expr(arg, env)[0] for arg in rule.head.args]
    # The head's values are a tuple already: build it in C.
    out.w(depth, f"_h = _nt(NDTuple, ({rule.head.table!r}, "
                 f"{_tuple_code(head_values)}))")
    body_vars = _tuple_code([f"_a{i}" for i in range(len(atoms))])
    out.w(depth, f"_ap((_h, {body_vars}))")
    out.w(1, "return _out")


# ---------------------------------------------------------------------------
# Bindings and the shared plan cache
# ---------------------------------------------------------------------------


class CompiledRule:
    """One rule bound to its shape's code: per-trigger-position batch fire
    functions over the rule's constants, and their guards."""

    __slots__ = ("rule", "name", "body_tables", "guards", "_fires")

    def __init__(self, rule: Rule, code, constants: Tuple):
        make, self.body_tables, recipes = code
        self.rule = rule
        self.name = rule.name
        #: Per trigger position, what a tuple must hold for the rule to fire
        #: from there (see the module docstring); the engine dispatches on it.
        self.guards = tuple([recipe and _guard(recipe, constants)
                             for recipe in recipes])
        self._fires = make(*constants)

    def fire(self, position: int, triggers, database, functions):
        """All firings of the rule with each trigger at ``position``.

        Returns ``[(head, body), ...]``, ``body`` the matched tuples in
        body-atom order.  The caller applies the firings only after this
        returns (the module invariant).
        """
        return self._fires[position](triggers, database, functions)


class PlanCache:
    """Process-global LRU of plans: code by rule shape, bindings by rule.

    Plans are engine-stateless (the database and function registry are
    call arguments), so one cache serves every engine in the process —
    across the candidate corpus of one backtest and across jobs inside a
    distributed worker's ``RuntimeCache``.  ``misses`` counts code
    compiled, ``hits`` the lookups that compiled nothing, ``size`` the
    shapes held; ``capacity`` bounds each level.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._codes: OrderedDict = OrderedDict()
        self._plans: "OrderedDict[tuple, CompiledRule]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, rule: Rule) -> CompiledRule:
        key = _binding_key(rule)
        # Popped and re-inserted as the newest, under this rule's own key
        # object, so the next lookup of the rule compares keys by identity.
        plan = self._plans.pop(key, None)
        if plan is not None:
            self.hits += 1
            self._plans[key] = plan
            return plan
        (_name, shape, constants), = key
        code = self._codes.pop(shape, None)
        if code is None:
            code = _compile(rule)
            self.misses += 1
        else:
            self.hits += 1
        self._codes[shape] = code
        plan = self._plans[key] = CompiledRule(rule, code, constants)
        for lru in (self._codes, self._plans):
            while len(lru) > self.capacity:
                lru.popitem(last=False)
        return plan

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._codes), "capacity": self.capacity}

    def clear(self):
        self._codes.clear()
        self._plans.clear()
        self.hits = 0
        self.misses = 0


#: The process-global plan cache (see :class:`PlanCache`).
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> Dict[str, int]:
    """Stats of the process-global plan cache (hits/misses/size)."""
    return PLAN_CACHE.stats()
