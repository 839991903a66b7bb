"""Root of the test suites.

pytest puts this directory on ``sys.path`` when it loads this file, so a
suite imports the helpers kept here (``padded_programs``) by module name.
The NDlog oracle, ``tests/ndlog/reference_engine.py``, is the one engine
that records events and derivations, and suites outside ``tests/ndlog``
read that history too: its directory goes on ``sys.path`` as well, so
every suite imports it as ``reference_engine``.  So does
``tests/contracts``: its ``cases`` module holds the one copy of the
hand-built candidates (and of the report snapshots) every suite uses.
"""

import os
import sys

for _suite in ("ndlog", "contracts"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), _suite))
