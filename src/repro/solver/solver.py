"""A small constraint solver ("mini-solver") for meta provenance.

The paper's prototype hands most constraint pools to a hand-written
mini-solver and only escalates hard instances to Z3.  The pools generated by
meta provenance are conjunctions of comparisons between tuple attributes and
constants (plus primary-key implications), so a solver based on

1. equality propagation (union-find),
2. candidate-value enumeration from the constants mentioned in the pool, and
3. bounded backtracking search

solves them quickly and deterministically.  This module is that mini-solver;
it serves as the drop-in substitute for the Z3 dependency of the prototype.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .constraints import Comparison, Constraint, Implication
from .terms import Offset, SymVar, Term, WILDCARD, is_constant


class Model(dict):
    """A satisfying assignment: maps :class:`SymVar` to concrete values."""

    def value_of(self, var):
        if isinstance(var, str):
            var = SymVar(var)
        return self.get(var)

    def __str__(self):
        inner = ", ".join(f"{v.name}={value!r}" for v, value in sorted(
            self.items(), key=lambda kv: kv[0].name))
        return "{" + inner + "}"


class UnsatisfiableError(Exception):
    """Raised by :meth:`Solver.require_model` when no model exists."""


class _UnionFind:
    def __init__(self):
        self.parent: Dict[SymVar, SymVar] = {}

    def find(self, var: SymVar) -> SymVar:
        self.parent.setdefault(var, var)
        root = var
        while self.parent[root] != root:
            root = self.parent[root]
        # Path compression.
        while self.parent[var] != root:
            self.parent[var], var = root, self.parent[var]
        return root

    def union(self, a: SymVar, b: SymVar):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class Solver:
    """Conjunction solver over integer/string terms.

    Usage::

        solver = Solver()
        solver.add(eq(SymVar("Const0.Val"), SymVar("Swi")), eq(SymVar("Swi"), 3))
        model = solver.solve()
        model.value_of("Const0.Val")   # -> 3
    """

    #: Default values tried for otherwise-unconstrained integer variables.
    DEFAULT_CANDIDATES = (0, 1, 2)

    def __init__(self, constraints: Optional[Iterable[Constraint]] = None,
                 extra_candidates: Optional[Dict[SymVar, Sequence[object]]] = None,
                 max_steps: int = 200_000):
        self.constraints: List[Constraint] = list(constraints or [])
        self.extra_candidates: Dict[SymVar, List[object]] = defaultdict(list)
        for var, values in (extra_candidates or {}).items():
            self.extra_candidates[var].extend(values)
        self.max_steps = max_steps
        self._steps = 0

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, *constraints: Constraint):
        self.constraints.extend(constraints)
        return self

    def add_candidates(self, var: SymVar, values: Iterable[object]):
        """Suggest candidate values for a variable (domain hints)."""
        self.extra_candidates[var].extend(values)
        return self

    def variables(self) -> Set[SymVar]:
        out: Set[SymVar] = set()
        for constraint in self.constraints:
            out |= constraint.variables()
        for var in self.extra_candidates:
            out.add(var)
        return out

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self) -> Optional[Model]:
        """Return a model satisfying all constraints, or ``None`` if UNSAT
        (within the solver's bounded search)."""
        self._steps = 0
        variables = sorted(self.variables(), key=lambda v: v.name)
        if not variables:
            # Ground problem: just evaluate.
            return Model() if self._all_hold({}) else None
        union_find, fixed = self._propagate_equalities()
        if fixed is None:
            return None
        # Fast path: equality propagation already forced every variable (the
        # common shape of meta provenance pools — conjunctions of
        # ``var == const``).  Forced values hold in *any* model, so a single
        # consistency check decides satisfiability without the search.
        forced = Model()
        for var in variables:
            root = union_find.find(var)
            if root not in fixed:
                break
            forced[var] = fixed[root]
        else:
            return forced if self._all_hold(forced) else None
        candidates = self._candidate_values(variables, union_find, fixed)
        order = sorted(variables, key=lambda v: (len(candidates[v]), v.name))
        assignment: Dict[SymVar, object] = {}
        if self._search(order, 0, candidates, assignment, union_find, fixed):
            model = Model()
            for var in variables:
                model[var] = assignment[var]
            return model
        return None

    def require_model(self) -> Model:
        model = self.solve()
        if model is None:
            raise UnsatisfiableError(
                "constraint pool is unsatisfiable: "
                + "; ".join(str(c) for c in self.constraints))
        return model

    def solve_negation(self) -> Optional[Tuple[Model, Constraint]]:
        """Find an assignment that *violates* the conjunction.

        Used when repairing positive symptoms (Section 4.2): the derivation
        constraints are collected, negated, and a satisfying assignment of
        the negation yields a value change that breaks the derivation.

        Returns a ``(model, violated_constraint)`` pair or ``None``.
        """
        for constraint in self.constraints:
            negated = constraint.negated()
            sub = Solver([negated], extra_candidates=self.extra_candidates,
                         max_steps=self.max_steps)
            # Seed the sub-solver with all constants from the full pool so
            # that "interesting" values are available.
            for var in self.variables():
                sub.add_candidates(var, self._constants_mentioned())
            model = sub.solve()
            if model is not None:
                return model, constraint
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _comparisons(self) -> List[Comparison]:
        return [c for c in self.constraints if isinstance(c, Comparison)]

    def _all_hold(self, assignment) -> bool:
        for constraint in self.constraints:
            if constraint.evaluate(assignment) is not True:
                return False
        return True

    def _consistent_so_far(self, assignment) -> bool:
        for constraint in self.constraints:
            if constraint.evaluate(assignment) is False:
                return False
        return True

    def _propagate_equalities(self):
        """Union variables linked by simple equalities; detect conflicts.

        Returns ``(union_find, fixed)`` where ``fixed`` maps class roots to a
        forced constant value, or ``(union_find, None)`` on conflict.
        """
        union_find = _UnionFind()
        fixed: Dict[SymVar, object] = {}
        for comparison in self._comparisons():
            if comparison.op != "==":
                continue
            left, right = comparison.left, comparison.right
            if isinstance(left, SymVar) and isinstance(right, SymVar):
                union_find.union(left, right)
        for comparison in self._comparisons():
            if comparison.op != "==":
                continue
            left, right = comparison.left, comparison.right
            var, const = None, None
            if isinstance(left, SymVar) and is_constant(right):
                var, const = left, right
            elif isinstance(right, SymVar) and is_constant(left):
                var, const = right, left
            if var is None or const == WILDCARD:
                continue
            root = union_find.find(var)
            if root in fixed and fixed[root] != const:
                return union_find, None
            fixed[root] = const
        return union_find, fixed

    def _constants_mentioned(self) -> List[object]:
        constants: List[object] = []
        for comparison in self._comparisons():
            for term in (comparison.left, comparison.right):
                if is_constant(term) and term != WILDCARD:
                    constants.append(term)
                elif isinstance(term, Offset):
                    constants.append(term.offset)
        return constants

    def _candidate_values(self, variables, union_find, fixed):
        """Compute a candidate value pool per variable."""
        # Group constants by union-find class to keep pools relevant.
        per_class: Dict[SymVar, List[object]] = defaultdict(list)
        global_ints: List[int] = []
        for comparison in self._comparisons():
            class_vars = [union_find.find(v) for v in comparison.variables()]
            consts = [t for t in (comparison.left, comparison.right)
                      if is_constant(t) and t != WILDCARD]
            for const in consts:
                for root in class_vars:
                    per_class[root].append(const)
                    if isinstance(const, int):
                        # Neighbouring values make strict inequalities satisfiable.
                        per_class[root].extend([const - 1, const + 1])
                if isinstance(const, int):
                    global_ints.extend([const, const - 1, const + 1])
        candidates: Dict[SymVar, List[object]] = {}
        for var in variables:
            root = union_find.find(var)
            if root in fixed:
                candidates[var] = [fixed[root]]
                continue
            pool: List[object] = []
            pool.extend(self.extra_candidates.get(var, ()))
            pool.extend(per_class.get(root, ()))
            pool.extend(global_ints)
            pool.extend(self.DEFAULT_CANDIDATES)
            deduped = []
            seen = set()
            for value in pool:
                key = (type(value).__name__, value)
                if key not in seen:
                    seen.add(key)
                    deduped.append(value)
            candidates[var] = deduped
        return candidates

    def _search(self, order, index, candidates, assignment, union_find, fixed) -> bool:
        if index == len(order):
            return self._all_hold(assignment)
        var = order[index]
        root = union_find.find(var)
        if root in assignment and root != var:
            # Variable forced equal to an already-assigned representative.
            assignment[var] = assignment[root]
            if self._consistent_so_far(assignment) and self._search(
                    order, index + 1, candidates, assignment, union_find, fixed):
                return True
            del assignment[var]
            return False
        for value in candidates[var]:
            self._steps += 1
            if self._steps > self.max_steps:
                return False
            assignment[var] = value
            assignment[root] = value
            if self._consistent_so_far(assignment):
                if self._search(order, index + 1, candidates, assignment,
                                union_find, fixed):
                    return True
            del assignment[var]
            if root != var and root in assignment:
                del assignment[root]
        return False


def solve(constraints: Iterable[Constraint], **kwargs) -> Optional[Model]:
    """Convenience one-shot wrapper around :class:`Solver`."""
    return Solver(list(constraints), **kwargs).solve()
