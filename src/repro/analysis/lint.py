"""Program-level linting: the entry point behind ``repro lint``.

``lint_program`` runs the safety pass plus a program-level check
(duplicate rules), returning every finding.  The
Q1-Q5 ground-truth programs lint clean; the tier-1 lint gate asserts this
for every registered scenario.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional

from ..ndlog.ast import Program
from ..ndlog.tuples import TableSchema

from .findings import LintFinding, Severity, finding_at
from .safety import check_safety


def _check_duplicate_rules(program: Program) -> List[LintFinding]:
    """Two rules identical up to their name: the duplicate re-derives the
    same tuples and contributes nothing (the no-op-edit class)."""
    findings: List[LintFinding] = []
    seen = {}
    for rule in program.rules:
        key = replace(rule, name="")
        original = seen.get(key)
        if original is not None:
            findings.append(finding_at(
                "lint", "duplicate-rule", Severity.WARNING,
                f"rule {rule.name} duplicates rule {original.name} "
                f"(identical head, body, selections and assignments): "
                f"a no-op edit",
                rule=rule))
        else:
            seen[key] = rule
    return findings


def lint_program(program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 static_tuples: Iterable = ()) -> List[LintFinding]:
    """Run every program-level pass; returns all findings, errors first."""
    findings: List[LintFinding] = []
    findings.extend(check_safety(program, schemas, static_tuples))
    findings.extend(_check_duplicate_rules(program))
    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.NOTE: 2}
    findings.sort(key=lambda f: (order.get(f.severity, 3),
                                 f.line if f.line is not None else 1 << 30,
                                 f.code))
    return findings


def lint_scenario(scenario) -> List[LintFinding]:
    """Lint a registered scenario's program with its schemas and base data."""
    schemas = {schema.name: schema for schema in scenario.schemas()}
    return lint_program(scenario.program, schemas=schemas,
                        static_tuples=scenario.static_tuples)
