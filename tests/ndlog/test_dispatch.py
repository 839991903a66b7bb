"""Rule dispatch: what a guard is, and the invariant the engine holds.

*Dispatch returns a superset of the plans that would produce a firing, in
program order; ``fire`` still performs every check.*  The first test pins
which checks of a rule become guards (:mod:`repro.ndlog.plan` lists what
deliberately does not); the second holds the invariant by offering every
tuple of a small universe to every plan by hand; the third covers the
checks a skipped rule would have been *observed* making.  The random
counterpart is ``test_property_differential.py``.
"""

import itertools

import pytest

from repro.ndlog import Engine, parse_program
from repro.ndlog.plan import PLAN_CACHE
from repro.ndlog.tuples import NDTuple


@pytest.mark.parametrize("body, guard", [
    ("In(@X, Y, Z)", None),
    ("In(@X, Y, Z), Y == 1", ((1,), (1,))),
    ("In(@X, Y, Z), 1 == Y", ((1,), (1,))),
    ("In(@X, Y, Z), Z == 5, Y == 1", ((1, 2), (1, 5))),
    ("In(@X, 4, Z), Z == 5", ((1, 2), (4, 5))),
    ("In(@X, Y, Y), Y == 1", ((1,), (1,))),         # first column of Y
    ("In(@X, Y, Z), Y == 1, Y == 2", ((1,), (1,))),  # first guard of a column
    ("In(@X, Y, Z), Y == 1, Y > 0, Z == 5", ((1, 2), (1, 5))),
    # Not guards: a wildcard constant, the other comparisons, two variables,
    # a variable an assignment rebinds, a variable another atom binds.
    ("In(@X, *, Z), Y == *", None),
    ("In(@X, Y, Z), Y != 1, Z > 5, Z <= 7", None),
    ("In(@X, Y, Z), Y == Z", None),
    ("In(@X, Y, Z), Y == 1, Y := 1", None),
    ("In(@X, Y, Z), Other(@X, W), W == 1", None),
    # Nothing is skipped past a call or a division: the constant argument is
    # checked before them, the selections after them are not.
    ("In(@X, 4, Z), f_match(Z, 1) == 1, Z == 5", ((1,), (4,))),
    ("In(@X, Y, Z), 6 / Z > 1, Y == 1", None),
    ("In(@X, Y, Z), Y == 1, 6 % Z > 1, Z == 5", ((1,), (1,))),
    ("In(@X, Y, f_unique()), Y == 1", None),
    ("In(@X, 4, f_unique()), Y == 1", ((1,), (4,))),
    ("In(@X, Y, X + 1), Y == 1", ((1,), (1,))),
])
def test_what_is_a_guard(body, guard):
    rule, = parse_program(f"r Out(@X) :- {body}.").rules
    assert PLAN_CACHE.get(rule).guards[0] == guard


PROGRAM = """
    g1 Out(@X, Y, "g1") :- In(@X, Y), Y == 1.
    u Out(@X, Y, "u") :- In(@X, Y).
    j Out(@X, Z, "j") :- Side(@X, Z), In(@X, Y), Y == 2.
    g2 Out(@X, Y, "g2") :- In(@X, Y), 1 == Y.
    c Out(@X, X, "c") :- In(@X, 2).
    w Out(@X, Y, "w") :- In(@X, Y), X == 0, Y == 2.
    n Out(@X, Y, "n") :- In(@X, Y), Y != 1.
"""
UNIVERSE = (0, 1, 2, "*", True)


def test_dispatch_is_a_superset_in_program_order():
    program = parse_program(PROGRAM)
    engine = Engine(program, record_events=False)
    engine.insert(NDTuple("Side", (0, 9)))
    every_plan = [(PLAN_CACHE.get(rule), position)
                  for rule in program.rules
                  for position, atom in enumerate(rule.body)
                  if atom.table == "In"]
    triggers = [NDTuple("In", values) for width in (1, 2, 3)
                for values in itertools.product(UNIVERSE, repeat=width)]
    narrowed = 0
    for trigger in triggers:
        offered = engine.plans_triggered_by(trigger)
        assert [entry for entry in every_plan if entry in offered] == offered
        firing = [(plan, position) for plan, position in every_plan
                  if plan.fire(position, (trigger,), engine.database,
                               engine.functions, False)]
        assert [entry for entry in offered if entry in firing] == firing, \
            f"{trigger} fires a rule it was not offered to"
        narrowed += len(offered) < len(every_plan)
    assert narrowed > len(triggers) // 2
    assert engine.plans_triggered_by(NDTuple("Nobody", (1, 2))) == []


def test_a_rule_is_not_skipped_past_a_side_effect_or_an_error():
    program = parse_program("""
        count Seen(@X, N) :- In(@X, Y), f_unique() > 0, Y == 1, N := f_unique().
        div Half(@X, Y) :- In(@X, Y), 6 / Y > 0, X == 1.
    """)
    engine = Engine(program)
    for values in ((1, 2), (1, 3), (1, 1)):
        engine.insert(NDTuple("In", values))
    # Each In tuple drew a number on its way to ``Y == 1``, matched or not.
    assert engine.tuples("Seen") == {NDTuple("Seen", (1, 4))}
    with pytest.raises(ZeroDivisionError):
        engine.insert(NDTuple("In", (2, 0)))
