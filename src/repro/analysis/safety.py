"""Safety / schema checking for NDlog programs.

Three families of checks, all reported as :class:`LintFinding`s:

Range restriction (``unsafe-variable``)
    Every head variable must be bound by a body atom or computed by an
    assignment; every assignment may only read bound variables; every
    comparison (selection) variable must be bound.  Violations surface at
    runtime as :class:`~repro.ndlog.errors.UnboundVariableError` — the lint
    catches them before any packet is replayed.

Arity consistency (``arity-mismatch`` / ``arity-inconsistent``)
    Atom arity is checked against the declared
    :class:`~repro.ndlog.tuples.TableSchema` when one exists.  A *body* atom
    that can never match its table's tuples is an error (the rule is dead);
    a mis-shaped *head* is a warning — the engine tolerates mixed-arity
    derived tables (the controller drops tuples it cannot translate), and
    accepted repairs exploit this (Q4's retargeted rule derives a wider
    PacketOut than the original program).  Tables without a schema are
    checked for internal consistency across the program's atoms.

Type consistency (``type-clash``)
    A small inference lattice: each variable collects type evidence (``int``
    / ``str``) from the constants it is compared against and from constants
    or static-tuple values occupying the columns it binds.  Evidence of both
    types means a join or guard that can never be satisfied — a warning,
    because the engine evaluates such programs fine (the rule is just dead).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ndlog.ast import Atom, BinOp, Const, Program, Rule, Var, WILDCARD
from ..ndlog.tuples import TableSchema

from .findings import LintFinding, Severity, finding_at


def _value_type(value) -> Optional[str]:
    """Type-lattice element of a constant value (``None`` for wildcard)."""
    if value == WILDCARD:
        return None
    if isinstance(value, bool):
        return "int"
    if isinstance(value, int):
        return "int"
    if isinstance(value, str):
        return "str"
    return None


def column_type_evidence(program: Program,
                         static_tuples: Iterable = ()) -> Dict[Tuple[str, int], Set[str]]:
    """Evidence of what types inhabit each (table, column) pair.

    Sources: constant arguments of any atom at that column, and the values
    of static (base) tuples.  Wildcards contribute nothing.
    """
    evidence: Dict[Tuple[str, int], Set[str]] = {}
    for rule in program.rules:
        for atom in [rule.head] + list(rule.body):
            for column, arg in enumerate(atom.args):
                if isinstance(arg, Const):
                    tag = _value_type(arg.value)
                    if tag is not None:
                        evidence.setdefault((atom.table, column),
                                            set()).add(tag)
    for tup in static_tuples:
        for column, value in enumerate(tup.values):
            tag = _value_type(value)
            if tag is not None:
                evidence.setdefault((tup.table, column), set()).add(tag)
    return evidence


def _check_range_restriction(rule: Rule) -> Tuple[LintFinding, ...]:
    """Range-restriction findings of one rule — a fact of the rule alone, so
    :func:`check_safety` takes it once per ``Rule`` value (``rule.memo``):
    a candidate program shares all but its edited rules with the base."""
    findings: List[LintFinding] = []
    bound: Set[str] = set()
    for atom in rule.body:
        bound |= atom.variables()
    for assignment in rule.assignments:
        for name in sorted(assignment.expr.variables() - bound):
            findings.append(finding_at(
                "safety", "unsafe-variable", Severity.ERROR,
                f"assignment {assignment.var} := ... reads variable "
                f"{name!r} that no positive body atom binds",
                rule=rule))
        bound.add(assignment.var)
    for index, selection in enumerate(rule.selections):
        for name in sorted(selection.variables() - bound):
            findings.append(finding_at(
                "safety", "unsafe-variable", Severity.ERROR,
                f"selection {selection.to_ndlog()!r} compares variable "
                f"{name!r} that no positive body atom binds",
                rule=rule))
    for name in sorted(rule.head.variables() - bound):
        findings.append(finding_at(
            "safety", "unsafe-variable", Severity.ERROR,
            f"head variable {name!r} is bound by no positive body atom "
            f"and no assignment",
            rule=rule, atom=rule.head, atom_index=-1))
    return tuple(findings)


def _check_arity(program: Program,
                 schemas: Dict[str, TableSchema]) -> List[LintFinding]:
    findings: List[LintFinding] = []
    #: arity observed per schema-less table: table -> {arity: first atom}
    observed: Dict[str, Dict[int, Tuple[Rule, Atom, int]]] = {}
    for rule in program.rules:
        anchored = [(rule.head, -1)] + [(atom, i)
                                        for i, atom in enumerate(rule.body)]
        for atom, index in anchored:
            schema = schemas.get(atom.table)
            if schema is not None:
                if atom.arity != schema.arity:
                    severity = (Severity.WARNING if index == -1
                                else Severity.ERROR)
                    where = "head" if index == -1 else "body atom"
                    findings.append(finding_at(
                        "safety", "arity-mismatch", severity,
                        f"{where} {atom.table}/{atom.arity} does not match "
                        f"declared schema {atom.table}/{schema.arity}",
                        rule=rule, atom=atom, atom_index=index))
            else:
                observed.setdefault(atom.table, {}).setdefault(
                    atom.arity, (rule, atom, index))
    for table, arities in observed.items():
        if len(arities) <= 1:
            continue
        rendered = "/".join(str(a) for a in sorted(arities))
        for arity, (rule, atom, index) in sorted(arities.items()):
            findings.append(finding_at(
                "safety", "arity-inconsistent", Severity.WARNING,
                f"table {table} is used with arities {rendered} "
                f"across the program (no schema declared)",
                rule=rule, atom=atom, atom_index=index))
    return findings


def _check_types(program: Program,
                 evidence: Dict[Tuple[str, int], Set[str]]) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for rule in program.rules:
        var_types: Dict[str, Set[str]] = {}
        anchor: Dict[str, Tuple[Atom, int]] = {}
        for index, atom in enumerate(rule.body):
            for column, arg in enumerate(atom.args):
                if not isinstance(arg, Var):
                    continue
                tags = evidence.get((atom.table, column))
                if tags:
                    var_types.setdefault(arg.name, set()).update(tags)
                    anchor.setdefault(arg.name, (atom, index))
        for selection in rule.selections:
            expr = selection.expr
            if isinstance(expr, BinOp):
                pairs = ((expr.left, expr.right), (expr.right, expr.left))
                for side, other in pairs:
                    if isinstance(side, Var) and isinstance(other, Const):
                        tag = _value_type(other.value)
                        if tag is not None:
                            var_types.setdefault(side.name, set()).add(tag)
        for name, tags in sorted(var_types.items()):
            if len(tags) > 1:
                atom, index = anchor.get(name, (None, None))
                findings.append(finding_at(
                    "safety", "type-clash", Severity.WARNING,
                    f"variable {name!r} has conflicting type evidence "
                    f"({', '.join(sorted(tags))}): the join or guard can "
                    f"never be satisfied",
                    rule=rule, atom=atom, atom_index=index))
    return findings


def check_safety(program: Program,
                 schemas: Optional[Dict[str, TableSchema]] = None,
                 static_tuples: Iterable = ()) -> List[LintFinding]:
    """Run the safety/schema/type checks; returns findings (possibly empty)."""
    schemas = schemas or {}
    findings: List[LintFinding] = []
    for rule in program.rules:
        findings.extend(rule.memo("range_restriction",
                                  _check_range_restriction))
    findings.extend(_check_arity(program, schemas))
    findings.extend(_check_types(
        program, column_type_evidence(program, static_tuples)))
    return findings
