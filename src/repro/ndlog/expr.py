"""Expression evaluation for the NDlog engine.

Expressions appear in selection predicates and assignments.  Evaluation is
performed against a *binding* (a dict mapping variable names to values).
Comparisons yield Python booleans; arithmetic yields integers.

The wildcard constant ``*`` (see :data:`repro.ndlog.ast.WILDCARD`) compares
equal to every value, mirroring its use in flow-table matches and in the
paper's meta rules (the JID wildcard matched by ``f_match``).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from .ast import Atom, BinOp, Const, Expression, FuncCall, Var, WILDCARD
from .errors import EvaluationError, UnboundVariableError


class Bindings(dict):
    """A variable binding environment (a thin ``dict`` wrapper).

    The subclass exists mainly for readability at call sites and to offer the
    :meth:`extended` helper used during joins.
    """

    def extended(self, more: Mapping[str, object]) -> "Bindings":
        new = Bindings(self)
        new.update(more)
        return new


def _is_wildcard(value):
    return value == WILDCARD


def values_equal(a, b):
    """Equality that treats the wildcard as matching anything."""
    if _is_wildcard(a) or _is_wildcard(b):
        return True
    return a == b


def _compare(op, left, right):
    wildcard = left == WILDCARD or right == WILDCARD
    if op == "==":
        return wildcard or left == right
    if op == "!=":
        return not wildcard and left != right
    if wildcard:
        # Ordered comparisons against a wildcard are undefined; they fail.
        return False
    try:
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
    except TypeError as exc:
        raise EvaluationError(f"cannot compare {left!r} {op} {right!r}") from exc
    raise EvaluationError(f"unknown comparison operator {op!r}")


def try_compare(op, left, right):
    """What a selection ``left <op> right`` evaluates to, or ``None`` where
    evaluating it raises (incomparable types) — :func:`try_evaluate` for two
    ground values, so the repair search judges a comparison as the engine
    that runs the repaired program will."""
    try:
        return _compare(op, left, right)
    except EvaluationError:
        return None


def _arith(op, left, right):
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if isinstance(left, int) and isinstance(right, int) else left / right
        if op == "%":
            return left % right
    except TypeError as exc:
        raise EvaluationError(f"cannot compute {left!r} {op} {right!r}") from exc
    raise EvaluationError(f"unknown arithmetic operator {op!r}")


class FunctionRegistry:
    """Registry of built-in functions callable from NDlog expressions.

    The default registry provides the helpers used by the paper's meta rules:
    ``f_match`` (wildcard-aware equality), ``f_join`` (wildcard resolution)
    and ``f_unique`` (fresh identifiers).
    """

    def __init__(self):
        self._functions: Dict[str, Callable] = {}
        self._unique_counter = 0
        self.register("f_match", self._f_match)
        self.register("f_join", self._f_join)
        self.register("f_unique", self._f_unique)
        self.register("f_concat", self._f_concat)

    def register(self, name, func):
        self._functions[name] = func

    def lookup(self, name):
        if name not in self._functions:
            raise EvaluationError(f"unknown function {name!r}")
        return self._functions[name]

    # -- built-ins ----------------------------------------------------------

    @staticmethod
    def _f_match(a, b):
        return values_equal(a, b)

    @staticmethod
    def _f_join(a, b):
        if _is_wildcard(a):
            return b
        return a

    def _f_unique(self):
        self._unique_counter += 1
        return self._unique_counter

    @staticmethod
    def _f_concat(*parts):
        return "".join(str(p) for p in parts)


_DEFAULT_FUNCTIONS = FunctionRegistry()


def evaluate(expr: Expression, bindings: Optional[Mapping[str, object]] = None,
             functions: Optional[FunctionRegistry] = None, rule_name: str = "<expr>"):
    """Evaluate ``expr`` under ``bindings``.

    Raises:
        UnboundVariableError: if the expression references a variable absent
            from the binding environment.
    """
    bindings = bindings or {}
    functions = functions or _DEFAULT_FUNCTIONS
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise UnboundVariableError(rule_name, expr.name)
        return bindings[expr.name]
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, bindings, functions, rule_name)
        right = evaluate(expr.right, bindings, functions, rule_name)
        if expr.is_comparison():
            return _compare(expr.op, left, right)
        return _arith(expr.op, left, right)
    if isinstance(expr, FuncCall):
        func = functions.lookup(expr.name)
        args = [evaluate(a, bindings, functions, rule_name) for a in expr.args]
        return func(*args)
    raise EvaluationError(f"cannot evaluate expression of type {type(expr).__name__}")


def try_evaluate(expr: Expression, bindings: Optional[Mapping[str, object]] = None,
                 functions: Optional[FunctionRegistry] = None):
    """Like :func:`evaluate` but returns ``None`` instead of raising on
    unbound variables (used during partial evaluation in the repair search)."""
    try:
        return evaluate(expr, bindings, functions)
    except (UnboundVariableError, EvaluationError):
        return None


def match_atom(atom: Atom, tup, bindings: Mapping[str, object],
               functions: Optional[FunctionRegistry] = None) -> Optional[Bindings]:
    """Match a body atom against a concrete tuple, extending ``bindings``.

    The match is strict, like the compiled join's: table and arity must
    agree, constants and repeated or already-bound variables compare with
    plain ``==`` (a wildcard value is an ordinary value here), and an
    expression argument is evaluated under the bindings so far — if it
    cannot be (unbound variable, evaluation error) the atom does not match.
    Returns the extended bindings, or ``None``.
    """
    if atom.table != tup.table or len(atom.args) != len(tup.values):
        return None
    new = Bindings(bindings)
    for arg, value in zip(atom.args, tup.values):
        if isinstance(arg, Const):
            if arg.value != value:
                return None
        elif isinstance(arg, Var):
            if new.setdefault(arg.name, value) != value:
                return None
        else:
            try:
                computed = evaluate(arg, new, functions, "<atom-arg>")
            except EvaluationError:
                return None
            if computed != value:
                return None
    return new
