"""Root of the test suites.

pytest puts this directory on ``sys.path`` when it loads this file, so a
suite imports the helpers kept here (``padded_programs``) by module name.
The NDlog oracle, ``tests/ndlog/reference_engine.py``, is the one engine
that records events and derivations, and suites outside ``tests/ndlog``
read that history too: its directory goes on ``sys.path`` as well, so
every suite imports it as ``reference_engine``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "ndlog"))
