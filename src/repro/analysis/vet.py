"""Candidate vetting: static classification of repair candidates.

The vetter applies a candidate to the base program and classifies it:

``reject``
    The candidate provably cannot change any backtest outcome, or provably
    fails to evaluate.  Sound reject classes, checked in this order:

    ``apply-failed``
        the edits cannot be applied to the program at all;
    ``no-op-edit``
        the patched program and base data equal the originals;
    ``inert-insert``
        the edits only insert tuples, every one provably inert
        (:func:`~repro.analysis.constprop.insert_inert`).  A selection
        that could raise other than an
        :class:`~repro.ndlog.errors.EvaluationError` (``/``, ``%``, a
        function call) is never evaluated, so an insert that reaches one
        is replayed.

``warn``
    The candidate is backtested, but the lint passes found something
    suspicious (unsafe variable in a rule that may never fire, arity
    inconsistency, type clash, ...).

``ok``
    No findings.

The backtest asks only :meth:`CandidateVetter.decide`: the reject reason,
or ``None`` with the applied candidate, which the backtest keys for its
replay classes without applying it again.  A decision builds no finding:
:meth:`~CandidateVetter.vet` and :meth:`~CandidateVetter.vet_candidate` word
the reject's :class:`~repro.analysis.findings.LintFinding` records and the
:class:`~repro.analysis.findings.VetResult`, so
:mod:`repro.analysis.findings` loads only when linting.  Its checks cost the
edit, not the program — unedited rules are the base program's own objects,
so the no-op check recognises them by identity.
The ``warn`` findings are the linter's (``repro lint
--candidates``): :meth:`~CandidateVetter.vet` and
:meth:`~CandidateVetter.vet_candidate` take their verdict from the same
decision and add the whole-program lint passes over the patched program.

Soundness contract (enforced by the differential test suite): a rejected
candidate either fails to evaluate or backtests bit-identical to the
unpatched program — no accepted repair is ever vetoed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from ..ndlog.ast import Program
from ..ndlog.tuples import NDTuple, TableSchema

from .constprop import insert_inert

if TYPE_CHECKING:
    from .findings import LintFinding, VetResult


class _Decision:
    """What decides a veto: the reject class (``None``: backtest it), the
    applied candidate (``None`` when it does not apply, or changes
    nothing) and what the lint path words the reject's findings from —
    the apply error's message, or each inert tuple with its reason."""

    __slots__ = ("reason", "repaired", "detail")

    def __init__(self, reason: Optional[str], repaired=None, detail=None):
        self.reason = reason
        self.repaired = repaired
        self.detail = detail


class CandidateVetter:
    """Vets repair candidates against one scenario's program and base data."""

    def __init__(self, program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 static_tuples: Sequence[NDTuple] = (),
                 event_tables: Iterable[str] = (),
                 flow_table: Optional[str] = None):
        self.program = program
        self.schemas = dict(schemas or {})
        self.static_tuples = list(static_tuples)
        self.event_tables = set(event_tables)
        self.flow_table = flow_table

    # ------------------------------------------------------------------

    def decide(self, candidate) -> _Decision:
        """What the backtest does with ``candidate``: its ``reason`` is the
        reject class that lets the backtest skip it, or ``None`` when it
        must be replayed; then ``repaired`` is the applied candidate."""
        applied = self._applied(candidate)
        if applied.reason is not None:
            return applied
        return self._judge(applied.repaired)

    def vet_candidate(self, candidate) -> VetResult:
        """Apply ``candidate`` to the base program, then vet the result."""
        applied = self._applied(candidate)
        if applied.reason is not None:
            return self._result(applied)
        return self.vet(applied.repaired)

    def vet(self, repaired) -> VetResult:
        """Vet an applied candidate (a ``RepairedProgram``-shaped object
        with ``program`` / ``inserted_tuples``)."""
        return self._result(self._judge(repaired))

    # ------------------------------------------------------------------
    # The decision: the only place the reject rules live
    # ------------------------------------------------------------------

    def _applied(self, candidate) -> _Decision:
        """``candidate`` applied to the base program, or the
        ``apply-failed`` reject."""
        from ..repair.apply import RepairApplicationError, apply_candidate

        try:
            return _Decision(None, apply_candidate(self.program, candidate))
        except RepairApplicationError as exc:
            return _Decision("apply-failed", detail=str(exc))

    def _judge(self, repaired) -> _Decision:
        """The other two reject classes, in order, for an applied
        candidate."""
        patched: Program = repaired.program
        inserted = repaired.inserted_tuples
        # Rules the candidate did not edit are the base program's objects,
        # which tuple comparison recognises by identity.
        program_changed = patched.rules != self.program.rules
        if not program_changed and not inserted:
            return _Decision("no-op-edit")
        if inserted and not program_changed:
            setup = self.static_tuples + list(inserted)
            reasons = []
            for tup in inserted:
                reason = insert_inert(tup, patched, setup, self.event_tables,
                                      self.schemas, self.flow_table)
                if reason is None:
                    return _Decision(None, repaired)
                reasons.append((tup, reason))
            return _Decision("inert-insert", repaired, reasons)
        return _Decision(None, repaired)

    # ------------------------------------------------------------------
    # The lint path: the decision plus the passes' findings
    # ------------------------------------------------------------------

    def _result(self, decision: _Decision) -> VetResult:
        from .findings import OK, REJECT, WARN, VetResult
        from .safety import check_safety

        reason, repaired = decision.reason, decision.repaired
        if repaired is None:
            return VetResult(verdict=REJECT, reason=reason,
                             findings=_reject_findings(decision))
        patched: Program = repaired.program
        findings: List[LintFinding] = []
        findings.extend(check_safety(
            patched, self.schemas,
            self.static_tuples + list(repaired.inserted_tuples)))
        findings.extend(_reject_findings(decision))
        verdict = REJECT if reason is not None else WARN if findings else OK
        return VetResult(verdict=verdict, findings=findings, reason=reason)


def _reject_findings(decision: _Decision) -> List[LintFinding]:
    """The findings a reject reports (none for a candidate to replay)."""
    from .findings import LintFinding, Severity

    reason, detail = decision.reason, decision.detail
    if reason == "apply-failed":
        return [LintFinding(pass_name="vet", code="apply-failed",
                            severity=Severity.ERROR, message=detail)]
    if reason == "no-op-edit":
        return [LintFinding(
            pass_name="vet", code="no-op-edit", severity=Severity.ERROR,
            message="the edits leave the program and base data unchanged "
                    "— the backtest would repeat the baseline")]
    if reason == "inert-insert":
        return [LintFinding(
            pass_name="constprop", code="inert-insert",
            severity=Severity.ERROR,
            message=f"inserting {tup} is provably invisible to every "
                    f"replay ({why})") for tup, why in detail]
    return []
