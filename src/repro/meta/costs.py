"""Cost model for program changes.

Section 3.5: "We assign a low cost to common errors (such as changing a
constant by one or changing a == to a !=) and a high cost to unlikely errors
(such as writing an entirely new rule, or defining a new table)."  The
default numbers below follow the relative frequencies of bug-fix patterns
reported by Pan et al. (cited as [41] in the paper): tweaks to existing
literals are the most common fixes, changes to operators and deleted
conditions follow, and whole-rule additions are rare.

Every run explores under these defaults (``RepairConfig.cost_model``); the
explorer reads the table, the surcharge and the cutoff from one
:class:`CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..repair.candidates import Edit


#: Default base costs: one per :class:`~repro.repair.candidates.Edit` kind,
#: plus ``support_tuple`` (an ``insert_tuple`` that lets a rule fire).
DEFAULT_COSTS: Dict[str, float] = {
    "insert_tuple": 1.0,       # manually install a flow entry / config row
    "change_constant": 1.1,    # tweak a literal (most common bug-fix pattern)
    "change_operator": 1.6,    # == -> !=, < -> <=, ...
    "change_assignment": 1.8,  # change the expression assigned to a head var
    "delete_selection": 2.0,   # drop a condition
    "support_tuple": 2.0,      # insert base data to let an existing rule fire
    "change_head": 2.4,        # re-target a rule head
    "copy_rule": 3.0,          # copy an existing rule with modifications
}

#: Extra cost added when a constant change moves the value by more than one
#: (an off-by-one fix is more plausible than an arbitrary re-write).
FAR_CONSTANT_SURCHARGE = 0.3

#: Default exploration cut-off: costlier candidates are never emitted.
DEFAULT_CUTOFF = 5.0


@dataclass
class CostModel:
    """Assigns costs to individual edits; a candidate costs their sum."""

    costs: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_COSTS))
    cutoff: float = DEFAULT_CUTOFF

    def edit_cost(self, edit: Edit) -> float:
        base = self.costs[edit.kind]
        if edit.kind == "change_constant":
            base += self._constant_distance_surcharge(edit)
        return base

    def _constant_distance_surcharge(self, edit) -> float:
        old, new = getattr(edit, "old_value", None), getattr(edit, "new_value", None)
        if isinstance(old, int) and isinstance(new, int) and abs(old - new) > 1:
            return FAR_CONSTANT_SURCHARGE
        return 0.0

    def within_cutoff(self, cost: float) -> bool:
        return cost <= self.cutoff

