"""Meta provenance: provenance over programs as well as data.

This package implements the paper's primary contribution:

* :mod:`repro.meta.metatuples` — the program represented as data (Const,
  Oper, PredFunc, HeadFunc, Assign meta tuples).
* :mod:`repro.meta.forest` — meta provenance trees: the explanation of a
  repair candidate.
* :mod:`repro.meta.constant_values` — what is left of the constraint pools
  (Section 3.4): the value that makes one comparison hold.
* :mod:`repro.meta.costs` — the plausibility cost model (Section 3.5).
* :mod:`repro.meta.explorer` — the cost-ordered search over repair attempts
  and the tree that explains each candidate it returns (Figures 5, 6, 17).

The µDlog meta model of Figure 4, as NDlog source, is what the explorer
encodes operationally; no repair reads the source, so it is kept with the
suites that parse it (``tests/metarules.py``).
"""

from .costs import CostModel, DEFAULT_COSTS, uniform_cost_model
from .explorer import (
    ExistingTupleGoal,
    ExplorationResult,
    ExplorationStats,
    MetaProvenanceExplorer,
    MissingTupleGoal,
)
from .forest import EXIST, MetaForest, MetaTree, MetaVertex, NEXIST
from .history import HistoryIndex
from .metatuples import (
    AssignMeta,
    BaseMeta,
    ConstMeta,
    ExprMeta,
    HeadFuncMeta,
    HeadValMeta,
    JoinMeta,
    MetaLocation,
    OperMeta,
    PredFuncMeta,
    SelMeta,
    TupleMeta,
    TuplePredMeta,
)

__all__ = [
    "CostModel", "DEFAULT_COSTS", "uniform_cost_model",
    "ExistingTupleGoal", "ExplorationResult", "ExplorationStats",
    "MetaProvenanceExplorer", "MissingTupleGoal",
    "EXIST", "MetaForest", "MetaTree", "MetaVertex", "NEXIST",
    "HistoryIndex",
    "AssignMeta", "BaseMeta", "ConstMeta", "ExprMeta", "HeadFuncMeta",
    "HeadValMeta", "JoinMeta", "MetaLocation", "OperMeta", "PredFuncMeta",
    "SelMeta", "TupleMeta", "TuplePredMeta",
]
