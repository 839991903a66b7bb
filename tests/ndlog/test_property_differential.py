"""Property-based differential suite: random programs and mutation scripts.

Hypothesis generates small NDlog programs from a terminating grammar
(copy/swap/join/selection rules of up to three body atoms over a closed
value universe — recursion is allowed, arithmetic value creation is not)
together with random insert/remove/insert_many scripts, and asserts three
engine equivalences:

* the rewritten engine matches the scan-based :class:`NaiveEngine` oracle
  (per-operation derived sets and the final database state), and after
  every removal its tuples, flags and support bookkeeping equal those of a
  fresh engine fed the remaining base tuples,
* the quiet engine (``record_events=False``) reaches the same final state
  as the recording one over the same script, and
* a checkpoint/restore round-trip is a perfect rewind in the middle of any
  script, including the rule-plan and support bookkeeping.

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
rules, are held to the oracle's *event log*, also across a
checkpoint/``swap_program``/restore round trip of the dispatch table.

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
#: What rules compare against, as NDlog text.
CONSTANTS = ("0", "1", "2", "3", "*")

#: A primary key over *every* column never evicts (two tuples with one key
#: are one tuple), so results stay evaluation-order independent while the
#: key-update path (eviction check, supports) still runs on every insert.
KEYED_SCHEMA = TableSchema("K", ("x", "y"), primary_key=("x", "y"))

#: Rule shapes; every table has arity 2 and the location var leads.
_SHAPES = (
    "{name} {head}(@X, Y) :- {b1}(@X, Y).",
    "{name} {head}(@X, Y) :- {b1}(@Y, X).",
    "{name} {head}(@X, Z) :- {b1}(@X, Y), {b2}(@Y, Z).",
    "{name} {head}(@X, Y) :- {b1}(@X, Y), Y > {const}.",
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


def support_fingerprint(engine):
    """Engine-internal bookkeeping that checkpoint/restore must rewind."""
    return (final_state(engine), supports_of(engine), engine.clock,
            len(engine.events), len(engine.derivations))


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=programs(), script=scripts())
def test_quiet_engine_reaches_same_state_as_recording(program, script):
    recording = build(Engine, program)
    quiet = build(Engine, program, record_events=False)
    recorded_steps = run_script(recording, script)
    quiet_steps = run_script(quiet, script)
    assert [frozenset(s) for s in quiet_steps] == \
        [frozenset(s) for s in recorded_steps]
    assert final_state(quiet) == final_state(recording)
    # Note: clocks are NOT compared — quiet engines advance the clock for
    # inserts/removes but not per rule firing (they skip the derivation
    # records firings would have stamped).


@settings(max_examples=40, deadline=None, derandomize=True)
@given(program=programs(), base=st.lists(tuples_strategy(), min_size=1,
                                         max_size=12))
def test_insert_many_matches_sequential_inserts(program, base):
    sequential = build(Engine, program, record_events=False)
    for tup in base:
        sequential.insert(tup)
    batched = build(Engine, program, record_events=False)
    batched.insert_many(list(base))
    assert final_state(batched) == final_state(sequential)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(program=programs(), prefix=scripts(), suffix=scripts())
def test_checkpoint_restore_rewinds_any_script(program, prefix, suffix):
    engine = build(Engine, program)
    run_script(engine, prefix)
    before = support_fingerprint(engine)
    checkpoint = engine.checkpoint()
    run_script(engine, suffix)
    engine.restore(checkpoint)
    assert support_fingerprint(engine) == before
    assert engine.database.index_consistent()
    # The restored engine must keep evolving exactly like a never-
    # checkpointed twin.
    twin = build(Engine, program)
    run_script(twin, prefix)
    assert run_script(engine, suffix) == run_script(twin, suffix)
    assert final_state(engine) == final_state(twin)


def history(engine):
    """Everything a recording engine remembers, in order."""
    events = [(e.kind, e.time, e.tuple, e.node, e.rule) for e in engine.events]
    derivations = [(r.rule, r.head, r.body, r.bindings, r.time, r.node)
                   for r in engine.derivations]
    return events, derivations


def inserted(engine, base):
    return [engine.insert(tup) for tup in base], history(engine), \
        final_state(engine)


single_atom_programs = programs(shapes=_GUARD_SHAPES)
base_tuples = st.lists(tuples_strategy(), min_size=1, max_size=12)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(program=single_atom_programs, base=base_tuples)
def test_dispatch_keeps_the_oracles_event_log(program, base):
    assert inserted(build(Engine, program), base) == \
        inserted(build(NaiveEngine, program), base)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(first=single_atom_programs, second=single_atom_programs,
       base=base_tuples)
def test_dispatch_follows_the_program_through_swap_and_restore(first, second,
                                                               base):
    engine = build(Engine, first)
    checkpoint = engine.checkpoint()    # empty: the state of any program
    under_first = inserted(engine, base)
    engine.restore(checkpoint)
    engine.swap_program(second)
    assert inserted(engine, base) == inserted(build(NaiveEngine, second), base)
    engine.restore(checkpoint)
    assert engine.program is first
    assert inserted(engine, base) == under_first
