"""Constraint types for the mini-solver.

The constraint language matches what meta provenance generates (Section 3.4
of the paper): comparisons between terms (``==``, ``!=``, ``<``, ``>``,
``<=``, ``>=``) and implications used for primary-key consistency
(``D.x == D0.x implies D.y == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .terms import (
    SymVar,
    Term,
    WILDCARD,
    evaluate_term,
    render_term,
    term_variables,
)


NEGATIONS = {
    "==": "!=",
    "!=": "==",
    "<": ">=",
    ">": "<=",
    "<=": ">",
    ">=": "<",
}

COMPARISON_OPS = tuple(NEGATIONS)


class Constraint:
    """Base class for solver constraints."""

    def variables(self):
        raise NotImplementedError

    def evaluate(self, assignment):
        """Return True/False under a complete assignment, or ``None`` if a
        referenced variable is unassigned."""
        raise NotImplementedError

    def negated(self) -> "Constraint":
        raise NotImplementedError


def _compare(op: str, left, right):
    if left is None or right is None:
        return None
    wildcard = left == WILDCARD or right == WILDCARD
    if op == "==":
        return True if wildcard else left == right
    if op == "!=":
        return False if wildcard else left != right
    if wildcard:
        return False
    if not isinstance(left, type(right)) and not (
            isinstance(left, (int, bool)) and isinstance(right, (int, bool))):
        # Ordered comparison between incompatible types never holds.
        return False
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True)
class Comparison(Constraint):
    """A binary comparison between two terms."""

    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def variables(self):
        return term_variables(self.left) | term_variables(self.right)

    def evaluate(self, assignment):
        left = evaluate_term(self.left, assignment)
        right = evaluate_term(self.right, assignment)
        return _compare(self.op, left, right)

    def negated(self):
        return Comparison(NEGATIONS[self.op], self.left, self.right)

    def __str__(self):
        return f"{render_term(self.left)} {self.op} {render_term(self.right)}"


@dataclass(frozen=True)
class Implication(Constraint):
    """``antecedent -> consequent`` over conjunctions of comparisons.

    Used for the primary-key constraints of Section 3.4: if two tuple
    references agree on the key columns, they must agree on the rest.
    """

    antecedent: Tuple[Comparison, ...]
    consequent: Tuple[Comparison, ...]

    def variables(self):
        out = set()
        for comparison in self.antecedent + self.consequent:
            out |= comparison.variables()
        return out

    def evaluate(self, assignment):
        antecedent_values = [c.evaluate(assignment) for c in self.antecedent]
        if any(v is False for v in antecedent_values):
            return True
        if any(v is None for v in antecedent_values):
            return None
        consequent_values = [c.evaluate(assignment) for c in self.consequent]
        if any(v is False for v in consequent_values):
            return False
        if any(v is None for v in consequent_values):
            return None
        return True

    def negated(self):
        # not (A -> B) == A and not B; we approximate by keeping the
        # antecedent and negating the first consequent (sufficient for the
        # primary-key constraints the meta provenance generates).
        negated_consequent = tuple(c.negated() for c in self.consequent[:1])
        return Implication(self.antecedent, negated_consequent)

    def __str__(self):
        ant = " and ".join(str(c) for c in self.antecedent)
        con = " and ".join(str(c) for c in self.consequent)
        return f"({ant}) -> ({con})"


def eq(left: Term, right: Term) -> Comparison:
    return Comparison("==", left, right)


def ne(left: Term, right: Term) -> Comparison:
    return Comparison("!=", left, right)


def lt(left: Term, right: Term) -> Comparison:
    return Comparison("<", left, right)


def gt(left: Term, right: Term) -> Comparison:
    return Comparison(">", left, right)


def le(left: Term, right: Term) -> Comparison:
    return Comparison("<=", left, right)


def ge(left: Term, right: Term) -> Comparison:
    return Comparison(">=", left, right)


def comparison_from_ndlog(op: str, left: Term, right: Term) -> Comparison:
    """Build a comparison from an NDlog operator string."""
    return Comparison(op, left, right)
