"""The value the explorer picks for one comparison over one unknown.

``first_satisfying_value`` replaced a constraint solver that only ever saw
pools of one comparison over one variable.  The table states the behaviours
that survived it; ``constant_values_golden.json`` is a recorded differential:
the answers of the last commit that had the solver, on a pool of one
comparison, for 6 operators x 7 known values x 2 sides x 6 hint lists — a
value that makes the comparison ``hold`` (the pool solved as it is) and one
that makes it ``break`` (its negation solved) — which the function must
reproduce in value *and* type; to break a comparison is to satisfy the
negated operator, :data:`NEGATED_OPERATOR` below (the solver also appended
the known value to the hints, which is where the function tries it
anyway).  The Hypothesis tests hold the
search to the engine: a comparison holds for the explorer exactly when the
selection would evaluate to true.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.meta.constant_values import first_satisfying_value
from repro.ndlog.ast import BinOp, COMPARISON_OPERATORS, Const
from repro.ndlog.errors import EvaluationError
from repro.ndlog.expr import evaluate, try_compare

GOLDEN = json.loads(pathlib.Path(__file__).with_name(
    "constant_values_golden.json").read_text())["rows"]

#: The operator whose satisfying value breaks a comparison that held: what
#: the golden's ``break`` rows were solved with.
NEGATED_OPERATOR = {"==": "!=", "!=": "==", "<": ">=", ">": "<=",
                    "<=": ">", ">=": "<"}


def typed(value):
    return type(value).__name__, value


@pytest.mark.parametrize("op, known, side, hints, expected", [
    # An == has one answer, whatever is hinted first.
    ("==", 3, "right", ["*", 99], 3),
    ("==", "r7", "left", [99], "r7"),
    # The wildcard equals anything and orders with nothing.
    ("==", "*", "right", [], 0),
    ("==", "*", "left", ["s3", 5], "s3"),
    ("!=", "*", "right", [5, "s3"], None),
    ("<", "*", "left", [5, "s3"], None),
    ("!=", 3, "right", ["*", 4], 4),
    (">=", 3, "right", ["*"], 3),
    # An ordered comparison across incompatible types never holds.
    (">", 5, "left", ["s3"], 6),
    ("<", "s3", "right", [1, 2], None),
    ("<", "s3", "right", [1, "s4"], "s4"),
    # Integer neighbours make strict inequalities satisfiable with no hints.
    ("<", 7, "right", [], 8),
    ("<", 7, "left", [], 6),
    (">", -7, "right", [], -8),
    ("!=", 0, "left", [], -1),
    # Hint order wins (over the known value and its neighbours too).
    ("<=", 3, "right", [16, 4, 3], 16),
    ("<=", 3, "right", [2, 4, 16], 4),
    (">=", 3, "left", [], 3),
    # 1 and True are distinct candidates.
    ("!=", 0, "right", [True, 1], True),
    ("!=", 0, "right", [1, True], 1),
    ("==", True, "right", [1], True),
    # Nothing holds.
    ("<", "*", "right", [], None),
    (">", "zz", "left", ["a", 5], None),
])
def test_behaviours_kept_from_the_solver(op, known, side, hints, expected):
    value = first_satisfying_value(op, known, side, hints)
    assert typed(value) == typed(expected)


def test_recorded_answers_of_the_solver_are_reproduced():
    assert len(GOLDEN) == 1008
    misses = []
    for mode, op, known, side, hints, expected in GOLDEN:
        value = first_satisfying_value(
            op if mode == "hold" else NEGATED_OPERATOR[op], known, side, hints)
        if typed(value) != typed(expected):
            misses.append((mode, op, known, side, hints, expected, value))
    assert not misses, misses[:5]


def test_negation_is_an_involution_over_the_six_operators():
    assert sorted(NEGATED_OPERATOR) == sorted(COMPARISON_OPERATORS)
    for op, negated in NEGATED_OPERATOR.items():
        assert NEGATED_OPERATOR[negated] == op != negated


VALUES = st.one_of(st.integers(-20, 20), st.booleans(),
                   st.text("abs*3", max_size=2), st.just("*"))
OPS = st.sampled_from(COMPARISON_OPERATORS)


def engine_says(op, left, right):
    try:
        return evaluate(BinOp(op, Const(left), Const(right))) is True
    except EvaluationError:
        return False


@given(OPS, VALUES, VALUES)
@settings(max_examples=300, deadline=None)
def test_the_search_judges_a_comparison_as_the_engine_does(op, known, value):
    assert (try_compare(op, known, value) is True) == engine_says(op, known, value)


@given(OPS, VALUES, st.sampled_from(["left", "right"]),
       st.lists(VALUES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_a_chosen_value_satisfies_the_selection(op, known, side, hints):
    value = first_satisfying_value(op, known, side, hints)
    if value is not None:
        left, right = (known, value) if side == "right" else (value, known)
        assert engine_says(op, left, right)
