"""Where the explorer picks a value: one comparison over one unknown.

Section 3.4 of the paper collects a constraint pool per meta provenance tree
and hands it to a solver.  Here joins and heads are decided while support
choices are enumerated (``explorer._combo_joins``), so what is left to solve
is a single selection with one side known: which value must a constant take
for it to hold?
"""

from __future__ import annotations

from typing import Iterable

from ..ndlog.ast import WILDCARD
from ..ndlog.expr import try_compare

def satisfies(op: str, known, unknown_side: str, value) -> bool:
    """Whether ``known <op> value`` holds (``unknown_side == "right"``;
    ``value <op> known`` for ``"left"``) as the engine evaluates it."""
    if unknown_side == "right":
        return try_compare(op, known, value) is True
    return try_compare(op, value, known) is True


def first_satisfying_value(op: str, known, unknown_side: str,
                           hints: Iterable[object]):
    """The first value that :func:`satisfies` the comparison, or ``None`` if
    no candidate does.

    An ``==`` against a concrete value has one answer.  Otherwise the
    candidates are ``hints`` in order, then ``known`` and — for an integer,
    so that a strict inequality is satisfiable without hints — its two
    neighbours, then 0, 1, 2.
    """
    candidates = list(hints)
    if known != WILDCARD:
        if op == "==":
            return known
        candidates.append(known)
        if isinstance(known, int):
            candidates += (known - 1, known + 1)
    for value in (*candidates, 0, 1, 2):
        if satisfies(op, known, unknown_side, value):
            return value
    return None
