"""Extraction of program-based meta tuples from an NDlog program.

The meta tuple generator of the paper's prototype ("tuple generators",
Section 5.1) turns a controller program into meta tuples once.  The explorer
reads what it needs of them straight from the rules (its constant pool, the
operator of a selection it explains); this extraction is the reference the
tests hold those readings against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ndlog.ast import BinOp, Const, Program, Rule, Var
from repro.meta.metatuples import ConstMeta, MetaLocation, OperMeta


# The program-based meta tuples no repair reads: the explorer takes heads,
# body predicates and assignments straight from the rules.


@dataclass(frozen=True)
class HeadFuncMeta:
    """The head of a rule: ``HeadFunc(Rul, Tab, Args)``."""

    rule: str
    table: str
    args: Tuple[str, ...]
    location: MetaLocation

    def __str__(self):
        return f"HeadFunc(Rul={self.rule!r}, Tab={self.table!r}, Args={self.args})"


@dataclass(frozen=True)
class PredFuncMeta:
    """A body predicate: ``PredFunc(Rul, Tab, Args)``."""

    rule: str
    table: str
    args: Tuple[str, ...]
    location: MetaLocation

    def __str__(self):
        return f"PredFunc(Rul={self.rule!r}, Tab={self.table!r}, Args={self.args})"


@dataclass(frozen=True)
class AssignMeta:
    """An assignment: ``Assign(Rul, Arg, ID)``."""

    rule: str
    var: str
    expr_id: str
    expr_text: str
    location: MetaLocation

    def __str__(self):
        return f"Assign(Rul={self.rule!r}, Arg={self.var!r}, ID={self.expr_id!r})"


@dataclass
class MetaProgram:
    """All program-based meta tuples of a program, indexed by rule."""

    program: Program
    heads: List[HeadFuncMeta] = field(default_factory=list)
    predicates: List[PredFuncMeta] = field(default_factory=list)
    constants: List[ConstMeta] = field(default_factory=list)
    operators: List[OperMeta] = field(default_factory=list)
    assignments: List[AssignMeta] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_program(cls, program: Program) -> "MetaProgram":
        meta = cls(program=program)
        for rule in program.rules:
            meta._extract_rule(rule)
        return meta

    def _extract_rule(self, rule: Rule):
        self.heads.append(HeadFuncMeta(
            rule=rule.name,
            table=rule.head.table,
            args=tuple(a.to_ndlog() for a in rule.head.args),
            location=MetaLocation(rule.name, "head", 0),
        ))
        for index, atom in enumerate(rule.body):
            self.predicates.append(PredFuncMeta(
                rule=rule.name,
                table=atom.table,
                args=tuple(a.to_ndlog() for a in atom.args),
                location=MetaLocation(rule.name, "body", index),
            ))
        for index, selection in enumerate(rule.selections):
            sid = selection.to_ndlog()
            left_id = f"{rule.name}.s{index}.l"
            right_id = f"{rule.name}.s{index}.r"
            self.operators.append(OperMeta(
                rule=rule.name,
                selection_id=sid,
                left_id=left_id,
                right_id=right_id,
                op=selection.op,
                location=MetaLocation(rule.name, "selection", index, "op"),
            ))
            self._extract_expression(rule.name, selection.left,
                                     MetaLocation(rule.name, "selection", index, "left"),
                                     left_id)
            self._extract_expression(rule.name, selection.right,
                                     MetaLocation(rule.name, "selection", index, "right"),
                                     right_id)
        for index, assignment in enumerate(rule.assignments):
            expr_id = f"{rule.name}.a{index}"
            self.assignments.append(AssignMeta(
                rule=rule.name,
                var=assignment.var,
                expr_id=expr_id,
                expr_text=assignment.expr.to_ndlog(),
                location=MetaLocation(rule.name, "assignment", index),
            ))
            self._extract_expression(rule.name, assignment.expr,
                                     MetaLocation(rule.name, "assignment", index, "expr"),
                                     expr_id)

    def _extract_expression(self, rule_name, expr, location, expr_id):
        if isinstance(expr, Const):
            self.constants.append(ConstMeta(
                rule=rule_name, const_id=expr_id, value=expr.value,
                location=location))
        elif isinstance(expr, BinOp):
            self._extract_expression(rule_name, expr.left, location, expr_id + ".l")
            self._extract_expression(rule_name, expr.right, location, expr_id + ".r")
        # Variables contribute no Const meta tuples.

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def for_rule(self, rule_name: str) -> Dict[str, list]:
        """Return all meta tuples of one rule, grouped by kind."""
        return {
            "heads": [m for m in self.heads if m.rule == rule_name],
            "predicates": [m for m in self.predicates if m.rule == rule_name],
            "constants": [m for m in self.constants if m.rule == rule_name],
            "operators": [m for m in self.operators if m.rule == rule_name],
            "assignments": [m for m in self.assignments if m.rule == rule_name],
        }

    def constants_in_selection(self, rule_name: str, selection_index: int) -> List[ConstMeta]:
        return [
            m for m in self.constants
            if m.rule == rule_name
            and m.location.component == "selection"
            and m.location.index == selection_index
        ]

    def operator_of_selection(self, rule_name: str, selection_index: int) -> Optional[OperMeta]:
        for meta in self.operators:
            if meta.rule == rule_name and meta.location.index == selection_index:
                return meta
        return None

    def program_constants(self) -> List[object]:
        """All constant values used anywhere in the program (candidate pool)."""
        return [m.value for m in self.constants]
