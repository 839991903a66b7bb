"""The five diagnostic case studies of Section 5.3 (Q1-Q5)."""

import inspect
import sys
from functools import lru_cache, partial
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
    evaluated by the worker processes of the distributed backtest
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


@lru_cache(maxsize=None)
def _parameters(builder: Callable[..., NDlogScenario]):
    """The parameters of a registered builder and the ``SIZE_RANGES`` table
    beside it (none: no bounds); a lazily imported case study answers with
    its real builder's."""
    if isinstance(builder, partial) and builder.func is _build_case_study:
        builder = getattr(sys.modules[__name__], *builder.args)
    module = sys.modules.get(getattr(builder, "__module__", None))
    return (inspect.signature(builder).parameters,
            getattr(module, "SIZE_RANGES", {}))


def check_spec(spec: ScenarioSpec) -> None:
    """Refuse a spec that its builder could not take, as a :class:`SpecError`:
    an unregistered name, a parameter the builder lacks, a value whose type
    is not its default's (``bool`` is no ``int``), or a size outside the
    closed range the builder's ``SIZE_RANGES`` declares."""
    builder = SCENARIO_BUILDERS.get(spec.name)
    if builder is None:
        raise SpecError(f"unknown scenario {spec.name!r}; registered: "
                        f"{', '.join(sorted(SCENARIO_BUILDERS))}")
    parameters, ranges = _parameters(builder)
    for key, value in spec.params:
        parameter = parameters.get(key)
        if parameter is None:
            raise SpecError(f"scenario {spec.name} has no parameter {key!r}; "
                            f"it takes {sorted(parameters)}")
        default = parameter.default
        if default is not parameter.empty and type(value) is not type(default):
            raise SpecError(f"scenario {spec.name} parameter {key!r} must be "
                            f"{type(default).__name__}, not {value!r}")
        if key in ranges and not ranges[key][0] <= value <= ranges[key][1]:
            raise SpecError(f"scenario {spec.name} parameter {key!r} must be "
                            f"within [{ranges[key][0]}, {ranges[key][1]}], "
                            f"not {value!r}")


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
    "build_scenario", "all_scenarios", "check_spec",
]
