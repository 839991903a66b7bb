"""Golden differential suite: the engine's observable behaviour (ordered
derived lists, event log, derivation history, final state) must match the
fixtures captured from the pre-rewrite indexed engine.

Fingerprints are computed in a ``PYTHONHASHSEED=0`` subprocess because a
join visits its candidates in index-bucket (set) order, which depends on the
string hash seed: ``selffeed3_live``'s insert-time derivations and events
differ between seeds 0 and 1.  A removal reports in store order, the same
under every seed.  See :mod:`tests.ndlog.golden_cases` for the case
definitions and the regeneration command.
"""

import json
import os
import subprocess
import sys

import pytest

import golden_cases


def _load():
    with open(golden_cases.GOLDEN_PATH) as fh:
        return json.load(fh)


def _compute_actual():
    src = os.path.join(os.path.dirname(golden_cases.GOLDEN_PATH),
                       os.pardir, os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, golden_cases.__file__, "--dump"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


GOLDEN = _load()
ACTUAL = _compute_actual()


@pytest.mark.parametrize("name", sorted(golden_cases.CASES))
def test_engine_matches_golden(name):
    actual = ACTUAL[name]
    expected = golden_cases.CASES[name].get("expected") or GOLDEN[name]
    for key in expected:
        assert actual[key] == expected[key], (
            f"case {name!r}: {key} diverged from the pre-rewrite engine")
