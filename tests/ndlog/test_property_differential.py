"""Property-based differential suite: random programs and mutation scripts.

Hypothesis generates small NDlog programs from a terminating grammar
(copy/swap/join/selection rules of up to three body atoms over a closed
value universe — recursion is allowed, arithmetic value creation is not)
together with random insert/remove/insert_many scripts, and asserts three
engine equivalences:

* the rewritten engine matches the scan-based :class:`NaiveEngine` oracle
  (per-operation derived sets and the final database state),
* the quiet engine (``record_events=False``) reaches the same final state
  as the recording one over the same script, and
* a checkpoint/restore round-trip is a perfect rewind in the middle of any
  script, including the rule-plan and support bookkeeping.

These are the same invariants the hand-written golden suite pins, but
explored over a much wider program space.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.ndlog import Engine, NaiveEngine, parse_program
from repro.ndlog.tuples import NDTuple

TABLES = ("A", "B", "C", "D", "E")
VALUES = (0, 1, 2, 3)

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
)


@st.composite
def programs(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    rules = []
    for index in range(count):
        shape = draw(st.sampled_from(_SHAPES))
        rules.append(shape.format(
            name=f"r{index}",
            head=draw(st.sampled_from(TABLES)),
            b1=draw(st.sampled_from(TABLES)),
            b2=draw(st.sampled_from(TABLES)),
            b3=draw(st.sampled_from(TABLES)),
            const=draw(st.sampled_from(VALUES)),
        ))
    return parse_program("\n".join(rules))


def tuples_strategy():
    return st.builds(
        lambda table, x, y: NDTuple(table, (x, y)),
        st.sampled_from(TABLES),
        st.sampled_from(VALUES), st.sampled_from(VALUES))


def scripts():
    """A script is a list of ("insert" | "remove", tuple) steps."""
    step = st.tuples(st.sampled_from(("insert", "remove")),
                     tuples_strategy())
    return st.lists(step, min_size=1, max_size=20)


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


def support_fingerprint(engine):
    """Engine-internal bookkeeping that checkpoint/restore must rewind."""
    supports = {head: frozenset(keys)
                for head, keys in engine._supports.items() if keys}
    dependents = {tup: frozenset(entries)
                  for tup, entries in engine._dependents.items() if entries}
    return (final_state(engine), supports, dependents, engine.clock,
            len(engine.events), len(engine.derivations))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=programs(), script=scripts())
def test_engine_matches_naive_oracle(program, script):
    engine = Engine(program)
    naive = NaiveEngine(program.clone())
    for step, ((op, tup), expected) in enumerate(
            zip(script, run_script(naive, script))):
        if op == "insert":
            actual = frozenset(engine.insert(tup))
        else:
            actual = frozenset(engine.remove(tup))
        assert actual == expected, \
            f"step {step}: {op} {tup} diverged from the naive oracle"
    assert final_state(engine) == final_state(naive)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(program=programs(), script=scripts())
def test_quiet_engine_reaches_same_state_as_recording(program, script):
    recording = Engine(program)
    quiet = Engine(program, record_events=False)
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
    sequential = Engine(program, record_events=False)
    for tup in base:
        sequential.insert(tup)
    batched = Engine(program, record_events=False)
    batched.insert_many(list(base))
    assert final_state(batched) == final_state(sequential)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(program=programs(), prefix=scripts(), suffix=scripts())
def test_checkpoint_restore_rewinds_any_script(program, prefix, suffix):
    engine = Engine(program)
    run_script(engine, prefix)
    before = support_fingerprint(engine)
    checkpoint = engine.checkpoint()
    run_script(engine, suffix)
    engine.restore(checkpoint)
    assert support_fingerprint(engine) == before
    assert engine.database.index_consistent()
    # The restored engine must keep evolving exactly like a never-
    # checkpointed twin.
    twin = Engine(program)
    run_script(twin, prefix)
    assert run_script(engine, suffix) == run_script(twin, suffix)
    assert final_state(engine) == final_state(twin)
