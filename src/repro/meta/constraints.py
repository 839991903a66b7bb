"""Constraint pools: where the explorer asks a solver for a value.

Section 3.4 of the paper collects, per meta provenance tree, constraints over
the attributes of (possibly still missing) tuples — join, selection,
head-derivation and primary-key constraints — and a tree yields a repair only
if its pool is satisfiable.  Here the join and head constraints are decided
while support choices are enumerated (``explorer._combo_joins``), so a pool
holds only what is left to *solve*: the selection a new constant must
satisfy (``solve``), or must violate to break a derivation
(``solve_negation``).  The satisfying assignment supplies the constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..solver import Constraint, Model, Solver, SymVar


@dataclass
class ConstraintPool:
    """A conjunction of constraints plus candidate-value hints."""

    constraints: List[Constraint] = field(default_factory=list)
    candidate_hints: Dict[SymVar, List[object]] = field(default_factory=dict)
    #: Number of times a solver was invoked on this pool (for the Fig. 9a
    #: "constraint solving" phase accounting).
    solver_invocations: int = 0
    #: Wall-clock seconds spent inside the solver for this pool.
    solve_seconds: float = 0.0

    def add(self, *constraints: Constraint):
        self.constraints.extend(constraints)
        return self

    def hint(self, var: SymVar, values: Iterable[object]):
        self.candidate_hints.setdefault(var, []).extend(values)
        return self

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _solver(self) -> Solver:
        solver = Solver(list(self.constraints))
        for var, values in self.candidate_hints.items():
            solver.add_candidates(var, values)
        return solver

    def solve(self) -> Optional[Model]:
        """SATASSIGNMENT of the paper's Figure 5."""
        import time as _time
        self.solver_invocations += 1
        started = _time.perf_counter()
        try:
            return self._solver().solve()
        finally:
            self.solve_seconds += _time.perf_counter() - started

    def solve_negation(self):
        """UNSATASSIGNMENT: an assignment violating the conjunction."""
        import time as _time
        self.solver_invocations += 1
        started = _time.perf_counter()
        try:
            return self._solver().solve_negation()
        finally:
            self.solve_seconds += _time.perf_counter() - started
