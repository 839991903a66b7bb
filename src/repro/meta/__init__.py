"""Meta provenance: provenance over programs as well as data.

This package implements the paper's primary contribution:

* :mod:`repro.meta.metatuples` — the meta tuples a meta provenance tree
  names (Const and Oper from the program; Base, Tuple, Expr, Sel and
  HeadVal from the runtime).
* :mod:`repro.meta.forest` — meta provenance trees: the explanation of a
  repair candidate.
* :mod:`repro.meta.constant_values` — what is left of the constraint pools
  (Section 3.4): the value that makes one comparison hold.
* :mod:`repro.meta.costs` — the plausibility cost model (Section 3.5).
* :mod:`repro.meta.explorer` — the cost-ordered search over repair attempts
  and the tree that explains each candidate it returns (Figures 5, 6, 17),
  built when first read: ``forest`` and ``metatuples`` load then.

The µDlog meta model of Figure 4, as NDlog source, is what the explorer
encodes operationally; no repair reads the source, so it is kept with the
suites that parse it (``tests/metarules.py``).
"""

from .._lazy import lazy_exports
from .costs import CostModel, DEFAULT_COSTS
from .explorer import (
    Explanation,
    ExplorationResult,
    ExplorationStats,
    MetaProvenanceExplorer,
    MissingTupleGoal,
)
from .history import HistoryIndex

# The trees and their meta tuples load with the first tree someone reads
# (``candidate.tree``, ``ExplorationResult.forest``).
__getattr__, __dir__ = lazy_exports(__name__, {
    "forest": ("EXIST", "MetaForest", "MetaTree", "MetaVertex", "NEXIST"),
    "metatuples": ("BaseMeta", "ConstMeta", "ExprMeta", "HeadValMeta",
                   "MetaLocation", "OperMeta", "SelMeta", "TupleMeta"),
})

__all__ = [
    "CostModel", "DEFAULT_COSTS",
    "Explanation", "ExplorationResult", "ExplorationStats",
    "MetaProvenanceExplorer", "MissingTupleGoal",
    "EXIST", "MetaForest", "MetaTree", "MetaVertex", "NEXIST",
    "HistoryIndex",
    "BaseMeta", "ConstMeta", "ExprMeta", "HeadValMeta", "MetaLocation",
    "OperMeta", "SelMeta", "TupleMeta",
]
