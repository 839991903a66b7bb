"""The five diagnostic case studies of Section 5.3 (Q1-Q5)."""

import sys
from functools import partial
from typing import Callable, List

from .._lazy import lazy_exports
from .base import NDlogScenario, Symptom
from .spec import SCENARIO_BUILDERS, ScenarioSpec, SpecError

# A repair runs one case study: the others load with the first name that
# needs them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "q1_copy_paste": ("build_q1",),
    "q2_forwarding": ("build_q2",),
    "q3_policy_update": ("build_q3",),
    "q4_forgotten_packets": ("build_q4",),
    "q5_mac_learning": ("build_q5",),
})


def register_scenario(name: str,
                      builder: Callable[..., NDlogScenario]) -> None:
    """Register a scenario builder under ``name`` (upper-cased).

    Registered scenarios can be named by :class:`ScenarioSpec` and therefore
    evaluated on ``spawn`` and remote workers of the distributed backtest
    fabric.  Re-registering a name replaces the previous builder.
    """
    SCENARIO_BUILDERS[name.upper()] = builder


def _build_case_study(builder: str, **kwargs) -> NDlogScenario:
    """Build one of Q1-Q5 through its lazy export, which imports the case
    study's module on the first build."""
    return getattr(sys.modules[__name__], builder)(**kwargs)


for _name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
    register_scenario(_name, partial(_build_case_study,
                                     f"build_{_name.lower()}"))
del _name


def build_scenario(name: str, **kwargs) -> NDlogScenario:
    """Build a scenario by name ("Q1" ... "Q5"), stamping its spec."""
    try:
        builder = SCENARIO_BUILDERS[name.upper()]
    except KeyError as exc:
        raise KeyError(f"unknown scenario {name!r}; expected one of "
                       f"{sorted(SCENARIO_BUILDERS)}") from exc
    scenario = builder(**kwargs)
    scenario.spec = ScenarioSpec.create(name, params=kwargs)
    return scenario


def all_scenarios() -> List[NDlogScenario]:
    """Build all five scenarios (Q1-Q5) with their default parameters."""
    return [build_scenario(name) for name in sorted(SCENARIO_BUILDERS)]


__all__ = [
    "NDlogScenario", "ScenarioSpec", "SpecError", "Symptom",
    "SCENARIO_BUILDERS", "register_scenario",
    "build_q1", "build_q2", "build_q3", "build_q4", "build_q5",
    "build_scenario", "all_scenarios",
]
