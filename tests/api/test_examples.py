"""The runnable scripts in ``examples/`` still run and still suggest a repair.

They are the quickstart's face of the public API, so an API deletion that
breaks one must fail here and not in a reader's terminal.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

#: script -> the line on which it names a surviving repair.
SUGGESTION_LINES = {
    "quickstart.py": r"^Operator's pick: \S",
    "firewall_policy_update.py": r"^Suggested repair: \S",
    "mac_learning_repair.py": r"^Chosen repair: \S",
    "policy_dsl_repair.py": r"^\s*accepted\s+KS=\S+\s+\S",
}
#: script -> more it must print.  The firewall example is the one shipped
#: reader of ``candidate.tree``: the suggestion it explains is the candidate
#: object after backtesting, so its tree must have survived ``evaluate_all``.
ALSO_PRINTED = {
    "firewall_policy_update.py":
        r"^Meta provenance tree behind it:\n- NEXIST\[Tuple",
}


def test_every_example_is_covered():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == \
        sorted(SUGGESTION_LINES)


@pytest.mark.parametrize("script", sorted(SUGGESTION_LINES))
def test_example_runs_and_suggests_a_repair(script):
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(EXAMPLES / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for pattern in (SUGGESTION_LINES[script], ALSO_PRINTED.get(script, "")):
        assert re.search(pattern, done.stdout, re.MULTILINE), done.stdout
