"""Machine-readable findings produced by the static-analysis passes.

A :class:`LintFinding` names the pass that produced it, a stable ``code``
slug (the veto taxonomy in EXPERIMENTS.md enumerates them), the rule and
atom it anchors to, and — when the program came from the parser — the
source line/column, so findings render as ``program.ndlog:12:4``.  A
:class:`VetResult` is one candidate's lint verdict with its findings.  The
backtest's vetoes build neither: this module loads only when linting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: The verdicts of :class:`VetResult`.
REJECT = "reject"
WARN = "warn"
OK = "ok"


class Severity:
    """Severity levels, ordered: ``note < warning < error``."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    _ORDER = {NOTE: 0, WARNING: 1, ERROR: 2}

    @classmethod
    def max(cls, severities):
        worst = cls.NOTE
        for severity in severities:
            if cls._ORDER[severity] > cls._ORDER[worst]:
                worst = severity
        return worst


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic from a static-analysis pass.

    Attributes:
        pass_name: which pass produced it (``safety`` / ``lint`` /
            ``constprop`` / ``vet``).
        code: stable kebab-case slug identifying the finding class
            (e.g. ``unsafe-variable``, ``duplicate-rule``).
        severity: one of :class:`Severity`'s levels.
        message: human-readable description.
        rule: name of the rule the finding anchors to, or ``None`` for
            program-level findings.
        atom_index: index into the rule's body (``-1`` for the head),
            or ``None`` when the finding is not about a specific atom.
        line / column: 1-based source position when known.
    """

    pass_name: str
    code: str
    severity: str
    message: str
    rule: Optional[str] = None
    atom_index: Optional[int] = None
    line: Optional[int] = None
    column: Optional[int] = None

    def render(self, source_name: str = "<program>") -> str:
        location = source_name
        if self.line is not None:
            location += f":{self.line}"
            if self.column is not None:
                location += f":{self.column}"
        anchor = ""
        if self.rule is not None:
            anchor = f" [{self.rule}]"
        return (f"{location}: {self.severity}: "
                f"({self.pass_name}/{self.code}){anchor} {self.message}")

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "rule": self.rule,
            "atom_index": self.atom_index,
            "line": self.line,
            "column": self.column,
        }


def finding_at(pass_name, code, severity, message, rule=None, atom=None,
               atom_index=None):
    """Build a finding anchored at ``rule`` / ``atom`` (position-aware)."""
    line = column = None
    if atom is not None and atom.line is not None:
        line, column = atom.line, atom.column
    elif rule is not None and rule.line is not None:
        line, column = rule.line, rule.column
    return LintFinding(
        pass_name=pass_name, code=code, severity=severity, message=message,
        rule=rule.name if rule is not None else None,
        atom_index=atom_index, line=line, column=column)


@dataclass
class VetResult:
    """Outcome of vetting one candidate
    (:meth:`~repro.analysis.vet.CandidateVetter.vet_candidate`)."""

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
