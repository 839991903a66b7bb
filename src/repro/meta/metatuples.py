"""Meta tuples: the program represented as data.

Section 3.2 of the paper distinguishes *program-based* meta tuples — the
syntactic elements visible to the programmer (rule heads, predicates,
assignments, constants, operators) — from *runtime-based* meta tuples that
describe structures inside the NDlog runtime (tuples, joins, selections,
evaluated expressions, head values).

Only the meta tuples a meta provenance tree names are kept here: ``Const``
and ``Oper`` among the program-based ones, ``Base``, ``Tuple``, ``Expr``,
``Sel`` and ``HeadVal`` among the runtime-based ones.  A program-based meta
tuple carries a *location*: a precise pointer back into the AST (rule name
plus component index), which is what lets the repair generator turn a
change to a meta tuple into a concrete program edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ndlog.tuples import NDTuple


# ---------------------------------------------------------------------------
# Program-based meta tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetaLocation:
    """Pointer to a syntactic element inside a program.

    ``component`` is one of ``"head"``, ``"body"``, ``"selection"``,
    ``"assignment"``; ``index`` is the position within that component list;
    ``slot`` optionally refines the position (``"left"``/``"right"`` operand
    of a selection, or an argument index).
    """

    rule: str
    component: str
    index: int = 0
    slot: Optional[object] = None

    def __str__(self):
        slot = f".{self.slot}" if self.slot is not None else ""
        return f"{self.rule}/{self.component}[{self.index}]{slot}"


@dataclass(frozen=True)
class ConstMeta:
    """A constant appearing in a selection or assignment: ``Const(Rul, ID, Val)``."""

    rule: str
    const_id: str
    value: object
    location: MetaLocation

    def __str__(self):
        return f"Const(Rul={self.rule!r}, ID={self.const_id!r}, Val={self.value!r})"


@dataclass(frozen=True)
class OperMeta:
    """A selection operator: ``Oper(Rul, SID, ID', ID'', Opr)``."""

    rule: str
    selection_id: str
    left_id: str
    right_id: str
    op: str
    location: MetaLocation

    def __str__(self):
        return (f"Oper(Rul={self.rule!r}, SID={self.selection_id!r}, "
                f"ID'={self.left_id!r}, ID''={self.right_id!r}, Opr={self.op!r})")


# ---------------------------------------------------------------------------
# Runtime-based meta tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseMeta:
    """A base tuple insertion: ``Base(Tab, Vals)``."""

    tuple: NDTuple

    def __str__(self):
        return f"Base({self.tuple})"


@dataclass(frozen=True)
class TupleMeta:
    """A tuple present in the runtime: ``Tuple(Loc, Tab, Vals)``."""

    tuple: NDTuple
    node: object = None

    def __str__(self):
        return f"Tuple(L={self.node}, {self.tuple})"


@dataclass(frozen=True)
class ExprMeta:
    """An evaluated expression: ``Expr(Rul, JID, ID, Val)``."""

    rule: str
    join_id: object
    expr_id: str
    value: object

    def __str__(self):
        return (f"Expr(Rul={self.rule!r}, JID={self.join_id}, "
                f"ID={self.expr_id!r}, Val={self.value!r})")


@dataclass(frozen=True)
class SelMeta:
    """A selection evaluation: ``Sel(Rul, JID, SID, Val)``."""

    rule: str
    join_id: object
    selection_id: str
    value: bool

    def __str__(self):
        return (f"Sel(Rul={self.rule!r}, JID={self.join_id}, "
                f"SID={self.selection_id!r}, Val={self.value})")


@dataclass(frozen=True)
class HeadValMeta:
    """A value bound to a head argument: ``HeadVal(Rul, JID, Arg, Val)``."""

    rule: str
    join_id: object
    arg: str
    value: object

    def __str__(self):
        return (f"HeadVal(Rul={self.rule!r}, JID={self.join_id}, "
                f"Arg={self.arg!r}, Val={self.value!r})")
