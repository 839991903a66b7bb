"""The benchmark ledger's names for deleted mechanisms are inert.

The ledger (``benchmarks/ledger/probes.py``) flips knobs of mechanisms that
are gone — each in :data:`repro.api.config.LEDGER_ONLY_KNOBS` — through
``RepairConfig.with_updates`` for its ablation rows.  Until the ledger
stops naming them, the product keeps exactly that one shim, and this file
holds it to three things:

* a flipped name changes nothing: Q1–Q5 reports are byte-identical to the
  default configuration's (a row per name of the contract table,
  ``tests/contracts``);
* the name is no config field: a ``RepairConfig`` wire or a backtest job's
  ``BacktesterConfig`` wire carrying it is refused like any unknown key;
* no ``src/`` module names it outside the shim.
"""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro.api import RepairConfig
from repro.api.config import LEDGER_ONLY_KNOBS, ConfigError
from repro.distrib.jobs import (BacktesterConfig, JobRuntime, JobWireError,
                                build_job_wire)

from cases import LEDGER_DEFAULTS as DEFAULTS

SRC = pathlib.Path(repro.__file__).resolve().parent
SHIM = SRC / "api" / "config.py"


def test_every_shim_name_has_a_default():
    assert set(LEDGER_ONLY_KNOBS) == set(DEFAULTS)


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
def test_a_job_wire_carrying_a_ledger_only_knob_is_refused(knob):
    config = RepairConfig.for_scenario("Q1")
    scenario = config.build_scenario()
    wire = build_job_wire(config.make_backtester(scenario), [])
    assert knob not in wire["config"]
    flagged = dict(wire, config={**wire["config"], knob: DEFAULTS[knob]})
    with pytest.raises(JobWireError, match=re.escape(
            f"unknown BacktesterConfig keys: ['{knob}']")):
        JobRuntime(flagged)


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
