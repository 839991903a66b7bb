"""Spawn-safe scenario specifications.

Scenarios themselves are not picklable: they close over topology and trace
factories, hold a parsed program and cache a materialised trace.  Worker
processes and remote machines get a fresh interpreter and need a
*description* they can rebuild the scenario from.

A :class:`ScenarioSpec` is that description: the registered scenario name,
the keyword parameters its builder was called with, and a seed (reserved for
randomised traces; the Q1-Q5 traces are deterministic).  Specs are frozen,
hashable, JSON-serialisable and reconstruct bit-identical scenarios — same
program, same trace, same baseline statistics — in any process that can
import :mod:`repro`, which is what the distributed backtest fabric
(:mod:`repro.distrib`) ships over the wire.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class SpecError(ValueError):
    """Raised when a spec cannot be built or decoded."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative (name, params, seed) handle for a registered scenario."""

    name: str
    params: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0

    @classmethod
    def create(cls, name: str, params: Optional[Dict[str, object]] = None,
               seed: int = 0) -> "ScenarioSpec":
        items = tuple(sorted((params or {}).items()))
        return cls(name=name.upper(), params=items, seed=seed)

    def kwargs(self) -> Dict[str, object]:
        return dict(self.params)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------

    def build(self):
        """Rebuild the scenario from the registry; stamps ``scenario.spec``.

        The builder receives exactly the recorded parameters; ``seed`` is
        forwarded only to builders that accept it, so deterministic scenarios
        need not grow an unused argument.
        """
        from . import SCENARIO_BUILDERS
        try:
            builder = SCENARIO_BUILDERS[self.name]
        except KeyError as exc:
            raise SpecError(
                f"unknown scenario {self.name!r}; registered: "
                f"{sorted(SCENARIO_BUILDERS)}") from exc
        kwargs = self.kwargs()
        if self.seed and "seed" not in kwargs:
            if "seed" in inspect.signature(builder).parameters:
                kwargs["seed"] = self.seed
        scenario = builder(**kwargs)
        scenario.spec = self
        return scenario

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_wire(self) -> Dict[str, object]:
        return {"name": self.name, "params": self.kwargs(), "seed": self.seed}

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "ScenarioSpec":
        try:
            return cls.create(wire["name"], params=dict(wire.get("params") or {}),
                              seed=int(wire.get("seed", 0)))
        except (KeyError, TypeError, AttributeError) as exc:
            raise SpecError(f"malformed scenario spec: {wire!r}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_wire(json.loads(text))
