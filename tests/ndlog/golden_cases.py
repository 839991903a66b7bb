"""Shared case definitions for the golden differential suite.

The golden suite pins the *observable* behaviour of the NDlog engine —
per-operation derived lists (in order), the final table contents, the
base/derived flags and the support counts — against JSON fixtures captured
from the pre-rewrite indexed engine.  Any engine-core change that perturbs
an observable ordering shows up as a fixture diff instead of a silent
semantic drift.

Set-iteration order inside the engine (the order in which a join visits the
candidates of an index bucket) depends on Python's string hash, so fixtures
are captured and compared under ``PYTHONHASHSEED=0`` — both :func:`main` and
the test's fingerprint subprocess re-exec themselves with the seed pinned.
The ``remove`` steps of ``chain``, ``selffeed3_live`` and ``selfrec`` were
re-dumped when removal became a recompute: same tuples, now in store order.

Regenerate (only when an intentional behaviour change is being made)::

    PYTHONPATH=src python -m tests.ndlog.golden_cases

which rewrites ``tests/ndlog/golden/engine_golden.json`` from the current
engine.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from repro.ndlog.engine import Engine
from repro.ndlog.parser import parse_program
from repro.ndlog.tuples import NDTuple, TableSchema

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "engine_golden.json")


def _t(table, *values):
    return [table, list(values)]


#: What the ``guarded_dispatch_order`` case (below) produced at the commit
#: before rule dispatch existed, when every tuple was offered to every rule
#: of its table (``PYTHONHASHSEED=0``): the per-op derived lists.
GUARDED_DISPATCH_ORDER_AT_PARENT = {
    "steps": [
        {"op": "insert", "result":
         ["Out(1, 1, 'g1')", "Out(1, 1, 'u')", "Out(1, 1, 'g2')",
          "Out(1, 7, 'c')", "Out(1, 2, 'a')"]},
        {"op": "insert", "result": ["Out(1, 2, 'u')", "Out(1, 2, 'g3')"]},
        {"op": "insert", "result":
         ["Out(1, '*', 'g1')", "Out(1, '*', 'u')", "Out(1, '*', 'g2')",
          "Out(1, '*', 'g3')"]},
        {"op": "insert", "result":
         ["Out(2, True, 'g1')", "Out(2, True, 'u')", "Out(2, True, 'g2')",
          "Out(2, 7, 'c')", "Out(2, 2, 'a')"]},
        {"op": "insert", "result": []},
    ],
}

#: Each case: program text, schemas, and a list of operations.  Operations
#: are ("insert", tup) / ("insert_many", [tup...]) / ("remove", tup) /
#: ("consume", tup).  A case with an "expected" entry is held against that
#: instead of the fixture file.
CASES: Dict[str, dict] = {
    "chain": {
        "program": """
            r1 B(@X, Y) :- A(@X, Y).
            r2 C(@X, Y) :- B(@X, Y).
            r3 D(@X, Y) :- C(@X, Y), B(@X, Y).
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("A", 1, 10)),
            ("insert", _t("A", 2, 20)),
            ("remove", _t("A", 1, 10)),
            ("insert", _t("A", 1, 11)),
        ],
    },
    "join": {
        "program": """
            r J(@X, A, C) :- R(@X, A, B), S(@X, B, C).
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("S", 1, 5, 50)),
            ("insert", _t("S", 1, 6, 60)),
            ("insert", _t("R", 1, 100, 5)),
            ("insert", _t("R", 1, 101, 6)),
            ("insert", _t("S", 1, 5, 51)),
            ("remove", _t("S", 1, 5, 50)),
        ],
    },
    "selfrec": {
        "program": """
            base Reach(@X, Y) :- Link(@X, Y).
            step Reach(@X, Z) :- Link(@X, Y), Reach(@Y, Z).
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("Link", 1, 2)),
            ("insert", _t("Link", 2, 3)),
            ("insert", _t("Link", 3, 4)),
            ("remove", _t("Link", 2, 3)),
            ("insert", _t("Link", 2, 4)),
        ],
    },
    # A rule with three body atoms whose head feeds a *later* body atom of
    # the same rule.  The head variable ``C`` is never bound, so ``tri``
    # cannot fire: this case pins that such a rule stays silent.
    "selffeed3": {
        "program": """
            tri T(@X, C) :- A(@X, P), B(@X, Q), T(@X, P).
            seed T(@X, V) :- Seed(@X, V).
            cap C(@X) :- T(@X, 9).
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("Seed", 1, 7)),
            ("insert", _t("B", 1, 3)),
            ("insert", _t("A", 1, 7)),
            ("insert", _t("A", 1, 9)),
        ],
    },
    # The same shape with a bound head: ``tri`` fires from trigger positions
    # 0 (A), 1 (B) and 2 (T), several times per trigger, and its heads
    # re-enter ``T`` while the fixpoint that derived them is still running
    # (op 4: T(1,5) derived from B(1,5) then supports itself through
    # A(1,5)).  Recorded while the engine still had an interpreter for
    # positions 0 and 1; the compiled plans must reproduce it exactly.
    "selffeed3_live": {
        "program": """
            tri T(@X, Q) :- A(@X, P), B(@X, Q), T(@X, P).
            seed T(@X, V) :- Seed(@X, V).
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("Seed", 1, 7)),
            ("insert", _t("A", 1, 7)),
            ("insert", _t("A", 1, 5)),
            ("insert", _t("B", 1, 5)),
            ("insert", _t("B", 1, 3)),
            ("insert", _t("A", 1, 3)),
            ("remove", _t("Seed", 1, 7)),
            ("insert", _t("Seed", 1, 3)),
        ],
    },
    "exprs": {
        "program": """
            inc Out(@X, Z) :- In(@X, Y), Z := Y + 1.
            sel Big(@X, Y) :- In(@X, Y), Y > 10.
            wild W(@X) :- In(@X, *).
            idx Tag(@X, U) :- In(@X, Y), Y < 100, U := f_unique().
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("In", 1, 5)),
            ("insert", _t("In", 1, 50)),
            ("insert", _t("In", 2, 500)),
        ],
    },
    "keyed": {
        "program": """
            copy Cfg(@X, K, V) :- Raw(@X, K, V).
            read Out(@X, V) :- Cfg(@X, 1, V).
        """,
        "schemas": [
            TableSchema(name="Cfg", fields=("sw", "key", "val"),
                        primary_key=("sw", "key")),
        ],
        "ops": [
            ("insert", _t("Raw", 1, 1, 10)),
            ("insert", _t("Raw", 1, 1, 20)),
            ("insert", _t("Raw", 1, 2, 30)),
            ("remove", _t("Raw", 1, 1, 20)),
        ],
    },
    "transient": {
        "program": """
            fwd PacketOut(@X, P) :- PacketIn(@X, P), Allow(@X).
        """,
        "schemas": [
            TableSchema(name="PacketIn", fields=("sw", "pkt"),
                        persistent=False),
            TableSchema(name="PacketOut", fields=("sw", "pkt"),
                        persistent=False),
        ],
        "ops": [
            ("insert", _t("Allow", 1)),
            ("insert", _t("PacketIn", 1, 99)),
            ("insert", _t("PacketIn", 1, 98)),
        ],
    },
    "sendrecv": {
        # Head location differs from the trigger's: exercises SEND/RECEIVE.
        "program": """
            hop At(@Y, P) :- Pkt(@X, P, Y).
        """,
        "schemas": [
            TableSchema(name="Pkt", fields=("sw", "pkt", "next"),
                        location_index=0),
            TableSchema(name="At", fields=("sw", "pkt"), location_index=0),
        ],
        "ops": [
            ("insert", _t("Pkt", 1, 77, 2)),
            ("insert", _t("Pkt", 2, 78, 2)),
        ],
    },
    # Rule dispatch: ``g1``/``g2``/``g3`` carry a guard on column 1 (written
    # both ways round), ``c`` a constant argument, ``u`` none, and ``a``
    # compares an assignment target (which must not become a guard: the
    # selection reads the assigned 2, whatever the tuple's column holds, so
    # ``a`` fires for every tuple) — interleaved on one table, so the
    # derived lists pin that guarded and unguarded rules still fire in
    # program order, that a wildcard value reaches every selection guard (but not
    # the strict constant argument), that ``True`` finds the ``1`` bucket,
    # and that a tuple too short for the guarded column fires nothing.  The
    # expectation is written out below instead of living in the fixture
    # file: it was recorded at the commit before dispatch existed, when
    # every tuple was offered to every rule.
    "guarded_dispatch_order": {
        "program": """
            g1 Out(@X, Y, "g1") :- In(@X, Y), Y == 1.
            u Out(@X, Y, "u") :- In(@X, Y).
            g2 Out(@X, Y, "g2") :- In(@X, Y), 1 == Y.
            c Out(@X, Y, "c") :- In(@X, 1), Y := 7.
            a Out(@X, Y, "a") :- In(@X, Y), Y == 2, Y := 2.
            g3 Out(@X, Y, "g3") :- In(@X, Y), Y == 2.
        """,
        "schemas": [],
        "ops": [
            ("insert", _t("In", 1, 1)),
            ("insert", _t("In", 1, 2)),
            ("insert", _t("In", 1, "*")),
            ("insert", _t("In", 2, True)),
            ("insert", _t("In", 3)),
        ],
        "expected": GUARDED_DISPATCH_ORDER_AT_PARENT,
    },
}


def _tuple(spec) -> NDTuple:
    table, values = spec
    return NDTuple(table, tuple(values))


def _render(tup: NDTuple) -> str:
    return str(tup)


def run_case(case: dict) -> dict:
    program = parse_program(case["program"])
    engine = Engine(program)
    for schema in case["schemas"]:
        engine.register_schema(schema)
    steps: List[dict] = []
    for op in case["ops"]:
        kind = op[0]
        if kind == "insert":
            result = engine.insert(_tuple(op[1]))
            steps.append({"op": "insert", "result": [_render(t) for t in result]})
        elif kind == "insert_many":
            result = engine.insert_many([_tuple(s) for s in op[1]])
            steps.append({"op": "insert_many",
                          "result": [_render(t) for t in result]})
        elif kind == "remove":
            result = engine.remove(_tuple(op[1]))
            steps.append({"op": "remove", "result": [_render(t) for t in result]})
        elif kind == "consume":
            steps.append({"op": "consume",
                          "result": engine.consume(_tuple(op[1]))})
        else:  # pragma: no cover — case-spec typo guard
            raise ValueError(f"unknown op {kind!r}")
    tables = {name: sorted(_render(t) for t in engine.database.tuples(name))
              for name in sorted(engine.database.tables())}
    flags = sorted(f"{_render(t)}:{'B' if engine.database.is_base(t) else ''}"
                   f"{'D' if engine.database.is_derived(t) else ''}"
                   for name in engine.database.tables()
                   for t in engine.database.tuples(name))
    support_counts = {
        _render(head): len(keys)
        for head, keys in sorted(engine._supports.items(),
                                 key=lambda kv: _render(kv[0]))
    }
    return {
        "steps": steps,
        "tables": tables,
        "flags": flags,
        "supports": support_counts,
    }


def run_all() -> dict:
    return {name: run_case(case) for name, case in sorted(CASES.items())}


def ensure_fixed_hash_seed():
    """Re-exec the current script with ``PYTHONHASHSEED=0`` if needed."""
    if not sys.flags.hash_randomization:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def main():
    ensure_fixed_hash_seed()
    if "--dump" in sys.argv:
        json.dump(run_all(), sys.stdout, indent=1, sort_keys=True)
        return
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: fingerprint
                   for name, fingerprint in run_all().items()
                   if "expected" not in CASES[name]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
