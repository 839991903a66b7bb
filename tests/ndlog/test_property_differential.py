"""Property-based differential suite: random programs and mutation scripts.

Hypothesis generates small NDlog programs from a terminating grammar
(copy/swap/join/selection rules of up to three body atoms over a closed
value universe — recursion is allowed, arithmetic value creation is not)
together with random insert/remove/insert_many scripts, and asserts two
engine equivalences:

* the rewritten engine matches the scan-based :class:`NaiveEngine` oracle
  (per-operation derived sets and the final database state), and after
  every removal its tuples, flags and support bookkeeping equal those of a
  fresh engine fed the remaining base tuples, and
* one ``insert_many`` reaches the state of the same tuples inserted one by
  one.

The engine offers a tuple only to the rules whose *guard* it meets
(:mod:`repro.ndlog.engine`, "Rule dispatch"), a pre-filter that must never
change what fires or in which order.  The grammar therefore has every shape
that filter could get wrong — ``Y == c`` and ``c == Y``, a constant atom
argument, a compared variable that is an assignment target (not a guard),
a wildcard constant (not a guard), rules with one guard signature around an
unguarded rule of the same table — and the value universe has ``"*"`` (a
wildcard value meets every selection guard) and ``True`` (which must find
the ``1`` bucket, as ``==`` does).  Programs of single-atom rules, where a
tuple fires a rule at most once and the order of firings is the order of
rules, are held to the oracle's *order*: each insert's derived list, the
final state and the store order of the derived tuples.
Rules also compare against and write the string ``"1"``, and one shape puts
a constant in the head, so rules that differ only by a constant's type meet
in the shared plan cache across examples: one compiled shape, never one
binding.

These are the same invariants the hand-written golden suite pins, but
explored over a much wider program space.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from reference_engine import NaiveEngine
from repro.ndlog import Engine, parse_program
from repro.ndlog.tuples import NDTuple, TableSchema

TABLES = ("A", "B", "C", "D", "E")
#: What tuples hold.  ``True == 1`` and they hash alike, so (x, True) *is*
#: the tuple (x, 1) — and a ``Y == 1`` guard must see it that way too.
VALUES = (0, 1, 2, 3, "*", True)
#: What ordered comparisons take without raising, as NDlog text.
ORDERED = ("0", "1", "2", "3", "*")
#: What rules compare against and write.  ``"1"`` is a string: rules that
#: differ only by ``1``/``"1"`` are one shape up to the constant's type, so
#: they share compiled code but never a binding.
CONSTANTS = ORDERED + ('"1"',)

#: A primary key over *every* column never evicts (two tuples with one key
#: are one tuple), so results stay evaluation-order independent while the
#: key-update path (eviction check, supports) still runs on every insert.
KEYED_SCHEMA = TableSchema("K", ("x", "y"), primary_key=("x", "y"))

#: Rule shapes; every table has arity 2 and the location var leads.
_SHAPES = (
    "{name} {head}(@X, Y) :- {b1}(@X, Y).",
    "{name} {head}(@X, Y) :- {b1}(@Y, X).",
    "{name} {head}(@X, Z) :- {b1}(@X, Y), {b2}(@Y, Z).",
    "{name} {head}(@X, Y) :- {b1}(@X, Y), Y > {ordered}.",
    "{name} {head}(@X, Y) :- {b1}(@X, Y), {b2}(@X, Y).",
    # Three atoms: when {head} equals {b2} or {b3} the head feeds a body atom
    # that the join reaches at depth >= 2 (cf. golden case selffeed3_live).
    "{name} {head}(@X, Z) :- {b1}(@X, Y), {b2}(@X, Y), {b3}(@Y, Z).",
    "{name} {head}(@X, Z) :- {b1}(@X, Y), {b2}(@X, Z), {b3}(@X, Y).",
    # Two rules through the keyed table, which joins whatever SCCs the other
    # rules form — K's own when {head} equals {b1}.
    "{name} K(@X, Y) :- {b1}(@X, Y).\n{name}k {head}(@Y, X) :- K(@X, Y).",
)

#: Single-atom shapes around the engine's rule dispatch (module docstring).
_GUARD_SHAPES = (
    "{name} {head}(@X, Y) :- {b1}(@X, Y), Y == {const}.",
    "{name} {head}(@X, Y) :- {b1}(@X, Y), {const} == Y.",
    "{name} {head}(@X, X) :- {b1}(@X, {const}).",
    "{name} {head}(@X, Y) :- {b1}(@X, Y), Y == {const}, Y := {const2}.",
    "{name}a {head}(@X, Y) :- {b1}(@X, Y), Y == {const}.\n"
    "{name}b {b2}(@Y, X) :- {b1}(@X, Y).\n"
    "{name}c {b3}(@X, Y) :- {b1}(@X, Y), Y == {const2}.",
    "{name} {head}(@X, Y) :- {b1}(@X, Y).",
    "{name} {head}(@Y, X) :- {b1}(@X, Y), Y != {const}.",
    # A constant in the head: the value a tuple holds is the constant itself.
    "{name} {head}(@X, {const}) :- {b1}(@X, Y).",
)


@st.composite
def programs(draw, shapes=_SHAPES + _GUARD_SHAPES):
    count = draw(st.integers(min_value=1, max_value=5))
    rules = []
    for index in range(count):
        shape = draw(st.sampled_from(shapes))
        rules.append(shape.format(
            name=f"r{index}",
            head=draw(st.sampled_from(TABLES)),
            b1=draw(st.sampled_from(TABLES)),
            b2=draw(st.sampled_from(TABLES)),
            b3=draw(st.sampled_from(TABLES)),
            const=draw(st.sampled_from(CONSTANTS)),
            const2=draw(st.sampled_from(CONSTANTS)),
            ordered=draw(st.sampled_from(ORDERED)),
        ))
    return parse_program("\n".join(rules))


def build(engine_class, program, **options):
    engine = engine_class(program, **options)
    engine.register_schema(KEYED_SCHEMA)
    return engine


def tuples_strategy():
    return st.builds(
        lambda table, x, y: NDTuple(table, (x, y)),
        st.sampled_from(TABLES + (KEYED_SCHEMA.name,)),
        st.sampled_from(VALUES), st.sampled_from(VALUES))


@st.composite
def scripts(draw):
    """A script is a list of ("insert" | "remove", tuple) steps.  Three
    removals in four target a tuple an earlier step inserted, so that
    deletions usually have a cone to work on."""
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        op = draw(st.sampled_from(("insert", "remove")))
        earlier = [tup for done, tup in steps if done == "insert"]
        if op == "remove" and earlier and draw(st.integers(0, 3)):
            steps.append((op, draw(st.sampled_from(earlier))))
        else:
            steps.append((op, draw(tuples_strategy())))
    return steps


def run_script(engine, script):
    """Apply a script; returns the per-step derived/underived tuple sets."""
    out = []
    for op, tup in script:
        if op == "insert":
            out.append(frozenset(engine.insert(tup)))
        else:
            out.append(frozenset(engine.remove(tup)))
    return out


def final_state(engine):
    tables = {table: engine.database.tuples(table)
              for table in engine.database.tables()
              if engine.database.tuples(table)}
    return (tables, engine.database.base_tuples(),
            engine.database.derived_tuples())


def supports_of(engine):
    return {head: frozenset(keys)
            for head, keys in engine._supports.items() if keys}


def derived_state(engine):
    """What a deletion must leave exactly as a from-scratch evaluation
    would: tuples, flags and supports."""
    return final_state(engine), supports_of(engine)


def rebuilt_from_base(engine):
    fresh = build(Engine, engine.program)
    fresh.insert_many(engine.database.base_in_order())
    return fresh


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=programs(), script=scripts())
def test_engine_matches_naive_oracle(program, script):
    engine = build(Engine, program)
    naive = build(NaiveEngine, program)
    for step, (op, tup) in enumerate(script):
        actual = frozenset(getattr(engine, op)(tup))
        expected = frozenset(getattr(naive, op)(tup))
        assert actual == expected, \
            f"step {step}: {op} {tup} diverged from the naive oracle"
        if op == "remove":
            assert final_state(engine) == final_state(naive)
            assert derived_state(engine) == \
                derived_state(rebuilt_from_base(engine)), \
                f"step {step}: {op} {tup} left other state than a rebuild"
    assert final_state(engine) == final_state(naive)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(program=programs(), base=st.lists(tuples_strategy(), min_size=1,
                                         max_size=12))
def test_insert_many_matches_sequential_inserts(program, base):
    sequential = build(Engine, program)
    for tup in base:
        sequential.insert(tup)
    batched = build(Engine, program)
    batched.insert_many(list(base))
    assert final_state(batched) == final_state(sequential)


def inserted(engine, base):
    """Each insert's ordered result, the final state, and the order in
    which the derived tuples entered the store."""
    return ([engine.insert(tup) for tup in base], final_state(engine),
            list(engine.database.derived_in_order()))


single_atom_programs = programs(shapes=_GUARD_SHAPES)
base_tuples = st.lists(tuples_strategy(), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(program=single_atom_programs, base=base_tuples)
def test_dispatch_keeps_the_oracles_order(program, base):
    assert inserted(build(Engine, program), base) == \
        inserted(build(NaiveEngine, program), base)
