"""High-level repair generation facade.

:class:`RepairGenerator` ties the meta provenance explorer to the engine's
history and exposes the two entry points of the paper's Figure 17 algorithm:
``find_repairs_for_missing`` (negative symptoms) and
``find_repairs_for_existing`` (positive symptoms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..ndlog.ast import Program
from ..ndlog.engine import Engine
from ..ndlog.tuples import NDTuple


@dataclass
class RepairGeneratorConfig:
    """Tunables forwarded to the meta provenance explorer."""

    max_candidates: int = 25
    max_constant_variants: int = 4
    enable_retarget_tasks: bool = True


class RepairGenerator:
    """Generates repair candidates for symptoms observed in an engine run."""

    def __init__(self, program: Program, engine: Optional[Engine] = None,
                 history=None, cost_model=None,
                 config: Optional[RepairGeneratorConfig] = None):
        # Imported here (not at module top) to keep the package import graph
        # acyclic: repro.meta imports repro.repair.candidates.
        from ..meta.costs import CostModel
        from ..meta.explorer import MetaProvenanceExplorer
        from ..meta.history import HistoryIndex

        self.program = program
        self.engine = engine
        if history is None:
            if engine is not None:
                history = HistoryIndex.from_engine(engine)
            else:
                history = HistoryIndex()
        self.history = history
        self.config = config or RepairGeneratorConfig()
        self.cost_model = cost_model or CostModel()
        self.explorer = MetaProvenanceExplorer(
            program, history, cost_model=self.cost_model,
            max_candidates=self.config.max_candidates,
            max_constant_variants=self.config.max_constant_variants,
            enable_retarget_tasks=self.config.enable_retarget_tasks)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def find_repairs_for_missing(self, table: str, constraints: Dict[int, object],
                                 node=None, description: str = ""):
        """Repairs that make a tuple matching ``constraints`` appear."""
        from ..meta.explorer import MissingTupleGoal

        goal = MissingTupleGoal.create(table, constraints, node=node,
                                       description=description)
        return self.explorer.explore_missing(goal)

    def find_repairs_for_existing(self, tup: NDTuple, description: str = ""):
        """Repairs that make the unwanted tuple ``tup`` disappear."""
        from ..meta.explorer import ExistingTupleGoal

        goal = ExistingTupleGoal(tup, description=description)
        derivations = self.engine.derivations_of(tup) if self.engine else []
        return self.explorer.explore_existing(goal, derivations)
