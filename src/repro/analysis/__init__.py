"""Static analysis over NDlog programs.

Three cooperating passes (Section "static program analysis" of the repair
pipeline); ``lint`` runs ``safety`` over a whole program (``repro lint``):

``safety``
    Range restriction (every head, assignment and comparison variable bound
    by a body atom or an assignment), arity consistency against declared
    :class:`~repro.ndlog.tuples.TableSchema`, and a small type-inference
    lattice over join keys and comparison constants.

``constprop``
    The closed world of one replay, in one model: proves a tuple
    *insertion* inert (no rule can fire on it, nothing collides with it) —
    the vetter's inert-insert veto; and keys patched programs so that equal
    keys replay alike — the backtest's replay classes.

``vet``
    Candidate vetting: decides the backtest's vetoes, and on the lint path
    runs the passes over a repair candidate's patched program and
    classifies it ``ok | warn | reject`` with machine-readable
    :class:`~repro.analysis.findings.LintFinding` records.

The package only imports :mod:`repro.ndlog` leaf modules (``ast``, ``expr``,
``plan``, ``tuples``) so it can be used from the engine, controllers and
repair layers without import cycles.
"""

from .._lazy import lazy_exports
from .vet import CandidateVetter

# The backtest's veto needs ``vet`` and ``constprop`` only; the findings and
# the lint passes load with the first name that needs them (``repro lint``,
# ``CandidateVetter.vet``).
__getattr__, __dir__ = lazy_exports(__name__, {
    "findings": ("LintFinding", "Severity", "VetResult"),
    "lint": ("lint_program", "lint_scenario"),
    "safety": ("check_safety",),
})

__all__ = [
    "CandidateVetter",
    "LintFinding",
    "Severity",
    "VetResult",
    "check_safety",
    "lint_program",
    "lint_scenario",
]
