"""What a fresh ``repro repair`` process imports, and the lazy package
surfaces that keep it small.

Cold start is most of a paper-sized query's turnaround (the ledger's
``cli.import_s``), so the set of modules a serial repair loads is a budget:
no third-party graph library, none of the worker fleet or its fault module,
the service, the observability layer, the lint passes and their findings,
the event classes of a bus nobody hears, the explanation trees nobody reads,
the other CLI subcommands, the four case studies it does not run or the
other controller languages (Table 3, which no package ``__init__`` names);
and the number of dataclasses it creates is pinned exactly.
``repro.distrib``, ``repro.obs``, ``repro.analysis``, ``repro.meta`` and
``repro.scenarios`` resolve some names on first use, and ``repro.api`` its
``FaultPlan`` and event classes; the second half checks nobody can tell the
difference, and holds ``repro.ndlog``'s eager surface to the same contract.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

REEXPORTING_PACKAGES = ["repro.analysis", "repro.api", "repro.distrib",
                        "repro.meta", "repro.ndlog", "repro.obs",
                        "repro.scenarios"]

#: Modules a serial ``repro repair`` has no business loading.  A quiet one
#: also builds no event, reads no explanation tree and lints nothing, so
#: it loads neither the event classes, the trees and their meta tuples nor
#: the lint findings.
UNWANTED = ["networkx", "socket", "subprocess", "pickle", "cProfile",
            "repro.distrib", "repro.service", "repro.obs",
            "repro.events", "repro.meta.forest", "repro.meta.metatuples",
            "repro.analysis.findings",
            "repro.analysis.safety", "repro.analysis.lint", "repro.cli_tools",
            "repro.scenarios.q2_forwarding", "repro.scenarios.q3_policy_update",
            "repro.scenarios.q4_forgotten_packets",
            "repro.scenarios.q5_mac_learning",
            "repro.scenarios.other_languages"]

#: Every module the process loads: 524 before the diet, 81 before the
#: first-use loads below, 70 after them; the slack is for interpreter
#: versions.
MODULE_BUDGET = 170

#: The ``repro`` source a CLI Q1 repair compiles (every process does, where
#: bytecode is not cached): 62 modules and 13,011 lines before the tool
#: subcommands, lint passes, fault module, metrics registry and unrun case
#: studies loaded on first use, 51 and 11,015 after; 48 and 9,658 before
#: events, trees and lint findings were built only for a reader, 45 and
#: 9,231 after.
REPRO_MODULE_BUDGET = 45
REPRO_LINE_BUDGET = 9_231
#: The dataclasses the same process creates, exactly: each costs its
#: generated methods' ``exec`` at import (about 0.6 ms for a frozen one on
#: CPython 3.11).  65 before a quiet repair stopped loading the 12 event
#: classes, the tree's vertex and 8 meta tuples, and the vetter's finding
#: and result.
REPRO_DATACLASSES = 41


def run_fresh(script):
    """Run ``script`` in a new interpreter that can import this ``repro``;
    its last stdout line is JSON."""
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source_root, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_serial_repair_stays_within_the_import_budget():
    result = run_fresh("""
import contextlib, io, json, sys
bare = set(sys.modules)
import repro.cli
imported = set(sys.modules) - bare
report = io.StringIO()
with contextlib.redirect_stdout(report):
    status = repro.cli.main(["repair", "q1", "--max-candidates", "14",
                             "--json", "--quiet"])
loaded = set(sys.modules) - bare
repro_lines = 0
dataclasses = []
for name in loaded:
    if name == "repro" or name.startswith("repro."):
        module = sys.modules[name]
        with open(module.__file__, encoding="utf-8") as source:
            repro_lines += sum(1 for _ in source)
        dataclasses += [f"{name}.{value.__qualname__}"
                        for value in vars(module).values()
                        if isinstance(value, type) and value.__module__ == name
                        and "__dataclass_fields__" in vars(value)]
print(json.dumps({
    "dataclasses": sorted(dataclasses),
    "status": status,
    "accepted": sum(row["accepted"]
                    for row in json.loads(report.getvalue())["results"]),
    "imported": sorted(imported),
    "loaded": sorted(loaded),
    "repro_lines": repro_lines}))
""")
    assert result["status"] == 0 and result["accepted"] > 0
    for stage in ("imported", "loaded"):
        unwanted = [name for name in result[stage]
                    if any(name == bad or name.startswith(bad + ".")
                           for bad in UNWANTED)]
        assert not unwanted, (stage, unwanted)
    assert len(result["loaded"]) <= MODULE_BUDGET, len(result["loaded"])
    repro_modules = [name for name in result["loaded"]
                     if name == "repro" or name.startswith("repro.")]
    assert len(repro_modules) <= REPRO_MODULE_BUDGET, repro_modules
    assert result["repro_lines"] <= REPRO_LINE_BUDGET, result["repro_lines"]
    assert len(result["dataclasses"]) == REPRO_DATACLASSES, \
        result["dataclasses"]


def test_lazy_surfaces_load_on_first_use_in_a_fresh_process():
    result = run_fresh("""
import json, sys
from unittest import mock
import repro.distrib, repro.controllers, repro.ndlog, repro.obs
import repro.analysis, repro.api, repro.scenarios
before = sorted(name for name in sys.modules if name.startswith("repro."))
checks = {}
checks["case_study"] = repro.scenarios.build_q3 is \
    sys.modules["repro.scenarios.q3_policy_update"].build_q3
checks["registered"] = repro.scenarios.SCENARIO_BUILDERS["Q4"]().name == "Q4"
checks["lint_pass"] = repro.analysis.check_safety is \
    sys.modules["repro.analysis.safety"].check_safety
checks["parent_module"] = repro.api.FaultPlan is \
    sys.modules["repro.distrib.faults"].FaultPlan
# a name, its submodule, and the submodule reached as an attribute
checks["name"] = repro.distrib.WorkerPool is \\
    sys.modules["repro.distrib.pool"].WorkerPool
checks["submodule"] = repro.obs.profile is sys.modules["repro.obs.profile"]
from repro.obs import Tracer
checks["from_import"] = Tracer is sys.modules["repro.obs.trace"].Tracer
# patching an unresolved name resolves, replaces and restores it
with mock.patch("repro.obs.Telemetry", "fake"):
    checks["patched"] = repro.obs.Telemetry == "fake"
checks["restored"] = repro.obs.Telemetry is \\
    sys.modules["repro.obs.telemetry"].Telemetry
checks["cached"] = "Scheduler" not in vars(repro.distrib) and \\
    repro.distrib.Scheduler is vars(repro.distrib)["Scheduler"]
print(json.dumps({"before": before, "checks": checks}))
""")
    for heavy in ("repro.distrib.pool", "repro.distrib.transport",
                  "repro.distrib.coordinator", "repro.obs.profile",
                  "repro.obs.telemetry", "repro.scenarios.other_languages",
                  "repro.scenarios.q3_policy_update",
                  "repro.scenarios.q4_forgotten_packets",
                  "repro.analysis.safety", "repro.analysis.lint"):
        assert heavy not in result["before"]
    assert all(result["checks"].values()), result["checks"]


@pytest.mark.parametrize("package_name", REEXPORTING_PACKAGES)
def test_lazy_surface_is_indistinguishable_from_an_eager_one(package_name):
    package = importlib.import_module(package_name)
    submodules = [importlib.import_module(f"{package_name}.{info.name}")
                  for info in pkgutil.iter_modules(package.__path__)]
    star = {}
    exec(f"from {package_name} import *", star)
    listing = dir(package)
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        value = getattr(package, name)
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            # A class or function: the module that defines it holds it.
            assert getattr(sys.modules[home], name) is value, name
        else:
            # A constant: some submodule of the package holds this object.
            assert any(getattr(sub, name, None) is value
                       for sub in submodules), name
        assert name in listing, name
        assert star[name] is value, name
    for submodule in submodules:
        short = submodule.__name__.rpartition(".")[2]
        assert getattr(package, short) is submodule
    assert not hasattr(package, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package_name} import no_such_name", {})
