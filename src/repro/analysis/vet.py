"""Candidate vetting: static classification of repair candidates.

The vetter runs the analysis passes over a candidate's *patched* program
(and patched base data) and classifies it:

``reject``
    The candidate provably cannot change any backtest outcome, or provably
    fails to evaluate.  Sound reject classes:

    ``no-op-edit``
        the patched program and base data equal the originals;
    ``inert-insert``
        the edits only insert tuples, every one provably inert
        (:meth:`ConstantPropagation.insert_inert`);
    ``negation-unsupported``
        the patched program contains a negated atom — the engine refuses
        such programs at plan time, so the backtest would fail anyway;
    ``apply-failed``
        the edits cannot be applied to the program at all.

``warn``
    The candidate is backtested, but the passes found something suspicious
    (unsafe variable in a rule that may never fire, arity inconsistency,
    type clash, ...).  Findings ride along for reporting.

``ok``
    No findings.

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
from .depgraph import DependencyGraph
from .findings import LintFinding, Severity
from .safety import check_safety


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

    def vet_candidate(self, candidate) -> VetResult:
        """Apply ``candidate`` to the base program, then vet the result."""
        from ..repair.apply import RepairApplicationError, apply_candidate

        try:
            repaired = apply_candidate(self.program, candidate)
        except RepairApplicationError as exc:
            return VetResult(verdict=REJECT, reason="apply-failed", findings=[
                LintFinding(pass_name="vet", code="apply-failed",
                            severity=Severity.ERROR, message=str(exc))])
        return self.vet(repaired)

    def vet(self, repaired) -> VetResult:
        """Vet an applied candidate (a ``RepairedProgram``-shaped object
        with ``program`` / ``inserted_tuples`` / ``removed_tuples``)."""
        patched: Program = repaired.program
        inserted: List[NDTuple] = list(repaired.inserted_tuples)
        removed: List[NDTuple] = list(repaired.removed_tuples)
        # Rules the candidate did not edit are the base program's objects,
        # which tuple comparison recognises by identity.
        program_changed = patched.rules != self.program.rules

        findings: List[LintFinding] = []

        if not program_changed and not inserted and not removed:
            findings.append(LintFinding(
                pass_name="vet", code="no-op-edit", severity=Severity.ERROR,
                message="the edits leave the program and base data "
                        "unchanged — the backtest would repeat the baseline"))
            return VetResult(verdict=REJECT, reason="no-op-edit",
                             findings=findings)

        patched_static = self.static_tuples + inserted
        findings.extend(DependencyGraph.of(patched).findings())
        findings.extend(check_safety(patched, self.schemas, patched_static))

        # The engine refuses negated atoms at plan time, so the candidate
        # could never complete a backtest.
        if any(f.code == "negation-unsupported" for f in findings):
            return VetResult(verdict=REJECT, reason="negation-unsupported",
                             findings=findings)

        if inserted and not program_changed and not removed:
            propagation = ConstantPropagation(
                patched, schemas=self.schemas, static_tuples=patched_static,
                event_tables=self.event_tables, flow_table=self.flow_table)
            reasons = []
            for tup in inserted:
                reason = propagation.insert_inert(tup)
                if reason is None:
                    reasons = None
                    break
                reasons.append((tup, reason))
            if reasons is not None:
                for tup, reason in reasons:
                    findings.append(LintFinding(
                        pass_name="constprop", code="inert-insert",
                        severity=Severity.ERROR,
                        message=f"inserting {tup} is provably invisible "
                                f"to every replay ({reason})"))
                return VetResult(verdict=REJECT, reason="inert-insert",
                                 findings=findings)

        if findings:
            return VetResult(verdict=WARN, findings=findings)
        return VetResult(verdict=OK, findings=findings)
