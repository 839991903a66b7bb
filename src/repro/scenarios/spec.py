"""Spawn-safe scenario specifications.

Scenarios themselves cannot be shipped: they close over topology and trace
factories, hold a parsed program and cache a materialised trace.  Worker
processes get a fresh interpreter and need a
*description* they can rebuild the scenario from.

A :class:`ScenarioSpec` is that description: the registered scenario name,
the keyword parameters its builder was called with, and a seed (reserved for
randomised traces; the Q1-Q5 traces are deterministic).  Specs are frozen,
hashable, :mod:`repro.wire` types and reconstruct bit-identical scenarios —
same program, same trace, same baseline statistics — in any process that can
import :mod:`repro`, which is what the distributed backtest fabric
(:mod:`repro.distrib`) ships over the wire.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..wire import Wire, WireError

#: Registry of scenario builders by name (``repro.scenarios`` fills it with
#: Q1-Q5; ``register_scenario`` adds more).  Entries are what makes a
#: scenario spawn-safe: a :class:`ScenarioSpec` naming a registered scenario
#: can be rebuilt in any worker process.
SCENARIO_BUILDERS: Dict[str, Callable[..., object]] = {}


class SpecError(WireError):
    """Raised when a spec cannot be built or decoded."""


@dataclass(frozen=True)
class ScenarioSpec(Wire):
    """Declarative (name, params, seed) handle for a registered scenario;
    ``params`` is an object on the wire and sorted items in memory."""

    wire_name, wire_error = "scenario spec", SpecError

    name: str
    params: Tuple[Tuple[str, object], ...] = field(
        default=(), metadata={"wire": Dict[str, object]})
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.upper())
        if isinstance(self.params, dict):
            object.__setattr__(self, "params",
                               tuple(sorted(self.params.items())))

    @classmethod
    def create(cls, name: str, params: Optional[Dict[str, object]] = None,
               seed: int = 0) -> "ScenarioSpec":
        return cls(name=name, params=params or {}, seed=seed)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def build(self):
        """Rebuild the scenario from the registry; stamps ``scenario.spec``.

        The builder receives exactly the recorded parameters; ``seed`` is
        forwarded only to builders that accept it, so deterministic scenarios
        need not grow an unused argument.
        """
        try:
            builder = SCENARIO_BUILDERS[self.name]
        except KeyError as exc:
            raise SpecError(
                f"unknown scenario {self.name!r}; registered: "
                f"{sorted(SCENARIO_BUILDERS)}") from exc
        kwargs = dict(self.params)
        if self.seed and "seed" not in kwargs:
            if "seed" in inspect.signature(builder).parameters:
                kwargs["seed"] = self.seed
        scenario = builder(**kwargs)
        scenario.spec = self
        return scenario
