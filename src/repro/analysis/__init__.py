"""Static analysis over NDlog programs.

Three cooperating passes (Section "static program analysis" of the repair
pipeline); ``lint`` runs ``safety`` over a whole program (``repro lint``):

``safety``
    Range restriction (every head, assignment and comparison variable bound
    by a body atom or an assignment), arity consistency against declared
    :class:`~repro.ndlog.tuples.TableSchema`, and a small type-inference
    lattice over join keys and comparison constants.

``constprop``
    Constant propagation through joined static tables: proves a tuple
    inert (no rule can fire on it) across multi-atom joins, and whole tuple
    *insertions* inert — the vetter's inert-insert veto.

``vet``
    Candidate vetting: runs the passes over a repair candidate's patched
    program and classifies it ``ok | warn | reject`` with machine-readable
    :class:`~repro.analysis.findings.LintFinding` records.

The package only imports :mod:`repro.ndlog` leaf modules (``ast``, ``expr``,
``tuples``) so it can be used from the engine, controllers and repair layers
without import cycles.
"""

from .._lazy import lazy_exports
from .constprop import ConstantPropagation
from .findings import LintFinding, Severity
from .vet import CandidateVetter, VetResult

# The backtest's veto needs ``vet`` and ``constprop`` only; the lint passes
# load with the first name that needs them (``repro lint``,
# ``CandidateVetter.vet``).
__getattr__, __dir__ = lazy_exports(__name__, {
    "lint": ("lint_program", "lint_scenario"),
    "safety": ("check_safety",),
})

__all__ = [
    "CandidateVetter",
    "ConstantPropagation",
    "LintFinding",
    "Severity",
    "VetResult",
    "check_safety",
    "lint_program",
    "lint_scenario",
]
