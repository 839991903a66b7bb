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
        (:meth:`ConstantPropagation.insert_inert`).

``warn``
    The candidate is backtested, but the lint passes found something
    suspicious (unsafe variable in a rule that may never fire, arity
    inconsistency, type clash, ...).

``ok``
    No findings.

The backtest asks only :meth:`CandidateVetter.veto`: the reject reason or
``None``.  Its checks cost the edit, not the program — unedited rules are the
base program's own objects, so the no-op check recognises them by identity.
The ``warn`` findings are the linter's (``repro lint
--candidates``): :meth:`~CandidateVetter.vet` and
:meth:`~CandidateVetter.vet_candidate` take their verdict from the same
decision and add the whole-program lint passes over the patched program.

Soundness contract (enforced by the differential test suite): a rejected
candidate either fails to evaluate or backtests bit-identical to the
unpatched program — no accepted repair is ever vetoed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..ndlog.ast import Program
from ..ndlog.tuples import NDTuple, TableSchema

from .constprop import ConstantPropagation
from .findings import LintFinding, Severity


REJECT = "reject"
WARN = "warn"
OK = "ok"


@dataclass
class VetResult:
    """Outcome of vetting one candidate."""

    verdict: str                     # "ok" | "warn" | "reject"
    findings: List[LintFinding] = field(default_factory=list)
    reason: Optional[str] = None     # primary reject code

    @property
    def rejected(self) -> bool:
        return self.verdict == REJECT

    def describe(self) -> str:
        if self.verdict == REJECT:
            return f"vetoed ({self.reason})"
        if self.findings:
            codes = sorted({f.code for f in self.findings})
            return f"{self.verdict} ({', '.join(codes)})"
        return self.verdict


@dataclass
class _Decision:
    """What decides a veto: the reject class (``None``: backtest it), the
    applied candidate to lint (``None`` when there is nothing to lint: it
    does not apply, or it changes nothing) and the reject's own findings,
    built only on a veto."""

    reason: Optional[str]
    repaired: object = None
    findings: Sequence[LintFinding] = ()


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

    def veto(self, candidate) -> Optional[str]:
        """The reason the backtest may skip ``candidate`` (a reject class),
        or ``None`` when it must be replayed."""
        applied = self._applied(candidate)
        if applied.reason is not None:
            return applied.reason
        return self._judge(applied.repaired).reason

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
            return _Decision("apply-failed", findings=[LintFinding(
                pass_name="vet", code="apply-failed",
                severity=Severity.ERROR, message=str(exc))])

    def _judge(self, repaired) -> _Decision:
        """The other two reject classes, in order, for an applied
        candidate."""
        patched: Program = repaired.program
        inserted = repaired.inserted_tuples
        # Rules the candidate did not edit are the base program's objects,
        # which tuple comparison recognises by identity.
        program_changed = patched.rules != self.program.rules
        if not program_changed and not inserted:
            return _Decision("no-op-edit", findings=[LintFinding(
                pass_name="vet", code="no-op-edit", severity=Severity.ERROR,
                message="the edits leave the program and base data "
                        "unchanged — the backtest would repeat the "
                        "baseline")])
        if inserted and not program_changed:
            propagation = ConstantPropagation(
                patched, schemas=self.schemas,
                static_tuples=self.static_tuples + list(inserted),
                event_tables=self.event_tables, flow_table=self.flow_table)
            reasons = []
            for tup in inserted:
                reason = propagation.insert_inert(tup)
                if reason is None:
                    return _Decision(None, repaired)
                reasons.append((tup, reason))
            return _Decision("inert-insert", repaired, [LintFinding(
                pass_name="constprop", code="inert-insert",
                severity=Severity.ERROR,
                message=f"inserting {tup} is provably invisible "
                        f"to every replay ({why})")
                for tup, why in reasons])
        return _Decision(None, repaired)

    # ------------------------------------------------------------------
    # The lint path: the decision plus the passes' findings
    # ------------------------------------------------------------------

    def _result(self, decision: _Decision) -> VetResult:
        from .safety import check_safety

        reason, repaired = decision.reason, decision.repaired
        if repaired is None:
            return VetResult(verdict=REJECT, reason=reason,
                             findings=list(decision.findings))
        patched: Program = repaired.program
        findings: List[LintFinding] = []
        findings.extend(check_safety(
            patched, self.schemas,
            self.static_tuples + list(repaired.inserted_tuples)))
        findings.extend(decision.findings)
        verdict = REJECT if reason is not None else WARN if findings else OK
        return VetResult(verdict=verdict, findings=findings, reason=reason)
