"""The benchmark ledger's names for deleted mechanisms are inert.

The ledger (``benchmarks/ledger/probes.py``) flips knobs of mechanisms that
are gone — each in :data:`repro.api.config.LEDGER_ONLY_KNOBS` — through
``RepairConfig.with_updates`` for its ablation rows.  Until the ledger
stops naming them, the product keeps exactly that one shim, and this file
holds it to three things:

* a flipped name changes nothing: Q1–Q5 ``repair --json`` minus
  ``timings`` is byte-identical to the default configuration's;
* the name is no config field: a config wire carrying it is refused like
  any unknown key;
* no ``src/`` module names it outside the shim.
"""

import dataclasses
import json
import pathlib
import re

import pytest

import repro
from repro.api import RepairConfig, RepairSession
from repro.api.config import LEDGER_ONLY_KNOBS, ConfigError
from repro.distrib.jobs import BacktesterConfig
from repro.repair import reset_candidate_ids

SCENARIOS = ("Q1", "Q2", "Q3", "Q4", "Q5")
SRC = pathlib.Path(repro.__file__).resolve().parent
SHIM = SRC / "api" / "config.py"

#: The value each knob had by default while its mechanism existed; the
#: test flips it.
DEFAULTS = {"warm_engine": True}

_reports = {}


def report_json(config: RepairConfig) -> str:
    """``repro repair --json`` minus ``timings``, as the CLI prints it."""
    reset_candidate_ids()
    wire = RepairSession(config).run().to_wire()
    del wire["timings"]
    return json.dumps(wire, sort_keys=True)


def default_report(name: str) -> str:
    if name not in _reports:
        _reports[name] = report_json(RepairConfig.for_scenario(name))
    return _reports[name]


def test_every_shim_name_has_a_default():
    assert set(LEDGER_ONLY_KNOBS) == set(DEFAULTS)


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("knob", LEDGER_ONLY_KNOBS)
def test_flipping_a_ledger_only_knob_changes_no_report(knob, name):
    default = RepairConfig.for_scenario(name)
    flipped = default.with_updates(**{knob: not DEFAULTS[knob]})
    assert flipped == default
    assert report_json(flipped) == default_report(name)


@pytest.mark.parametrize("knob", LEDGER_ONLY_KNOBS)
def test_a_ledger_only_knob_is_no_field_and_no_wire_key(knob):
    assert knob not in {f.name for f in dataclasses.fields(RepairConfig)}
    assert knob not in {f.name for f in dataclasses.fields(BacktesterConfig)}
    with pytest.raises(ConfigError,
                       match=re.escape(f"unknown config keys: ['{knob}']")):
        RepairConfig.from_wire({knob: DEFAULTS[knob]})
    wire = RepairConfig.for_scenario("Q1").to_wire()
    assert knob not in wire
    with pytest.raises(ConfigError, match="unknown config keys"):
        RepairConfig.from_wire({**wire, knob: not DEFAULTS[knob]})


@pytest.mark.parametrize("knob", LEDGER_ONLY_KNOBS)
def test_no_src_module_names_a_ledger_only_knob_outside_the_shim(knob):
    name = re.compile(rf"\b{re.escape(knob)}\b")
    naming = sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                    if name.search(path.read_text(encoding="utf-8")))
    assert naming == [str(SHIM.relative_to(SRC))], naming
    # In the shim module itself: comments, and the one tuple that lists it.
    code = [line for line in SHIM.read_text(encoding="utf-8").splitlines()
            if name.search(line) and not line.lstrip().startswith("#")]
    assert len(code) == 1 and code[0].startswith("LEDGER_ONLY_KNOBS = ("), \
        code
