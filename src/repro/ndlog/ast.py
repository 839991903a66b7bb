"""Abstract syntax tree for NDlog / µDlog programs.

The grammar follows Section 2.1 and Figure 3 of the paper.  A program is a
list of rules; each rule has a head atom, body atoms (joined tables),
selection predicates (comparisons) and assignments.  Location specifiers
(``@X``) mark the column of an atom that names the node on which the tuple
resides.

The AST is deliberately plain: every node supports ``==``, hashing, a
``clone()`` deep copy, and a ``to_ndlog()`` pretty printer that round-trips
through :mod:`repro.ndlog.parser`.  Repairs (see :mod:`repro.repair`) operate
by cloning and editing this AST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union


#: Sentinel used for wildcard values (the ``*`` in the paper, e.g. Q5's
#: ``Sip' := *`` meaning "match any source IP").
WILDCARD = "*"

#: Comparison operators allowed in selection predicates (Figure 3).
COMPARISON_OPERATORS = ("==", "!=", "<", ">", "<=", ">=")

#: Arithmetic operators allowed inside expressions.
ARITHMETIC_OPERATORS = ("+", "-", "*", "/", "%")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expressions appearing in selections and assignments."""

    def variables(self):
        """Return the set of variable names referenced by this expression."""
        return set()

    def clone(self):
        raise NotImplementedError

    def to_ndlog(self):
        raise NotImplementedError

    def __str__(self):
        return self.to_ndlog()


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant (integer, string or the wildcard ``*``)."""

    value: Union[int, str]

    def clone(self):
        return Const(self.value)

    def to_ndlog(self):
        if self.value == WILDCARD:
            return "*"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class Var(Expression):
    """A variable reference (capitalised identifier in NDlog)."""

    name: str

    def variables(self):
        return {self.name}

    def clone(self):
        return Var(self.name)

    def to_ndlog(self):
        return self.name


@dataclass(frozen=True)
class BinOp(Expression):
    """A binary operation, either arithmetic or a comparison."""

    op: str
    left: Expression
    right: Expression

    def variables(self):
        return self.left.variables() | self.right.variables()

    def clone(self):
        return BinOp(self.op, self.left.clone(), self.right.clone())

    def is_comparison(self):
        return self.op in COMPARISON_OPERATORS

    def to_ndlog(self):
        return f"{self.left.to_ndlog()} {self.op} {self.right.to_ndlog()}"


@dataclass(frozen=True)
class FuncCall(Expression):
    """A call to a built-in function such as ``f_unique()`` or ``f_match()``."""

    name: str
    args: Tuple[Expression, ...] = ()

    def variables(self):
        out = set()
        for arg in self.args:
            out |= arg.variables()
        return out

    def clone(self):
        return FuncCall(self.name, tuple(a.clone() for a in self.args))

    def to_ndlog(self):
        rendered = ", ".join(a.to_ndlog() for a in self.args)
        return f"{self.name}({rendered})"


# ---------------------------------------------------------------------------
# Atoms, selections, assignments
# ---------------------------------------------------------------------------


@dataclass
class Atom:
    """A predicate occurrence such as ``FlowTable(@Swi, Hdr, Prt)``.

    Attributes:
        table: name of the table.
        args: expressions filling the columns (usually ``Var`` or ``Const``).
        location_index: index of the argument carrying the ``@`` location
            specifier, or ``None`` if the atom has no location.
        negated: ``True`` for a negated body atom (``!Table(...)``).  The
            reference engine does not evaluate negation; the static analyzer
            (:mod:`repro.analysis`) uses the flag for stratification checks.
        line / column: 1-based source position of the atom's table name, when
            the atom came from the parser.  Excluded from equality/repr so
            positional metadata never influences program diffing or
            candidate signatures.
    """

    table: str
    args: List[Expression]
    location_index: Optional[int] = 0
    negated: bool = False
    line: Optional[int] = field(default=None, compare=False, repr=False)
    column: Optional[int] = field(default=None, compare=False, repr=False)

    def variables(self):
        out = set()
        for arg in self.args:
            out |= arg.variables()
        return out

    @property
    def arity(self):
        return len(self.args)

    @property
    def location(self):
        if self.location_index is None:
            return None
        return self.args[self.location_index]

    def clone(self):
        return Atom(self.table, [a.clone() for a in self.args],
                    self.location_index, negated=self.negated,
                    line=self.line, column=self.column)

    def to_ndlog(self):
        parts = []
        for index, arg in enumerate(self.args):
            text = arg.to_ndlog()
            if index == self.location_index:
                text = "@" + text
            parts.append(text)
        prefix = "!" if self.negated else ""
        return f"{prefix}{self.table}({', '.join(parts)})"

    def __str__(self):
        return self.to_ndlog()


@dataclass
class Selection:
    """A selection predicate, e.g. ``Swi == 2`` or ``Hdr != 53``."""

    expr: BinOp

    def variables(self):
        return self.expr.variables()

    @property
    def op(self):
        return self.expr.op

    @property
    def left(self):
        return self.expr.left

    @property
    def right(self):
        return self.expr.right

    def clone(self):
        return Selection(self.expr.clone())

    def to_ndlog(self):
        return self.expr.to_ndlog()

    def __str__(self):
        return self.to_ndlog()


@dataclass
class Assignment:
    """An assignment of an expression to a head variable, e.g. ``Prt := 2``."""

    var: str
    expr: Expression

    def variables(self):
        return self.expr.variables()

    def clone(self):
        return Assignment(self.var, self.expr.clone())

    def to_ndlog(self):
        return f"{self.var} := {self.expr.to_ndlog()}"

    def __str__(self):
        return self.to_ndlog()


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


@dataclass
class Rule:
    """A single NDlog rule.

    A rule fires when there is a variable assignment that matches every body
    atom against an existing tuple and satisfies every selection predicate;
    assignments then compute values for head variables that are not bound by
    the body.
    """

    name: str
    head: Atom
    body: List[Atom] = field(default_factory=list)
    selections: List[Selection] = field(default_factory=list)
    assignments: List[Assignment] = field(default_factory=list)
    #: 1-based source position of the rule name when parsed from text
    #: (``None`` for programmatically built rules).  Excluded from equality
    #: and repr so positions never affect program diffing.
    line: Optional[int] = field(default=None, compare=False, repr=False)
    column: Optional[int] = field(default=None, compare=False, repr=False)

    def clone(self):
        return Rule(
            name=self.name,
            head=self.head.clone(),
            body=[a.clone() for a in self.body],
            selections=[s.clone() for s in self.selections],
            assignments=[a.clone() for a in self.assignments],
            line=self.line,
            column=self.column,
        )

    def body_variables(self):
        out = set()
        for atom in self.body:
            out |= atom.variables()
        return out

    def assigned_variables(self):
        return {a.var for a in self.assignments}

    def head_variables(self):
        return self.head.variables()

    def to_ndlog(self):
        parts = [a.to_ndlog() for a in self.body]
        parts += [s.to_ndlog() for s in self.selections]
        parts += [a.to_ndlog() for a in self.assignments]
        body_text = ", ".join(parts)
        return f"{self.name} {self.head.to_ndlog()} :- {body_text}."

    def __str__(self):
        return self.to_ndlog()


@dataclass
class Program:
    """A collection of rules forming an NDlog program."""

    rules: List[Rule] = field(default_factory=list)
    name: str = "program"

    def clone(self):
        return Program(rules=[r.clone() for r in self.rules], name=self.name)

    def rule_named(self, name):
        """Return the rule with the given name, or raise ``KeyError``."""
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)

    def rule_index(self, name):
        for index, rule in enumerate(self.rules):
            if rule.name == name:
                return index
        raise KeyError(name)

    def rules_deriving(self, table):
        """Return all rules whose head populates ``table``."""
        return [r for r in self.rules if r.head.table == table]

    def tables(self):
        """Return the set of table names mentioned anywhere in the program."""
        names = set()
        for rule in self.rules:
            names.add(rule.head.table)
            for atom in rule.body:
                names.add(atom.table)
        return names

    def base_tables(self):
        """Tables that are never derived by any rule (only inserted)."""
        derived = {r.head.table for r in self.rules}
        return self.tables() - derived

    def derived_tables(self):
        return {r.head.table for r in self.rules}

    def line_count(self):
        """Number of rules; used by the program-size scalability experiment."""
        return len(self.rules)

    def to_ndlog(self):
        return "\n".join(rule.to_ndlog() for rule in self.rules) + "\n"

    def __str__(self):
        return self.to_ndlog()

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


# ---------------------------------------------------------------------------
# Helpers for building ASTs programmatically
# ---------------------------------------------------------------------------


def var(name):
    """Shorthand constructor for :class:`Var`."""
    return Var(name)


def const(value):
    """Shorthand constructor for :class:`Const`."""
    return Const(value)


def comparison(left, op, right):
    """Build a comparison ``Selection`` from expressions or raw values."""
    return Selection(BinOp(op, _lift(left), _lift(right)))


def assign(name, value):
    """Build an ``Assignment`` from a variable name and expression or value."""
    return Assignment(name, _lift(value))


def atom(table, *args, location_index=0):
    """Build an :class:`Atom`, lifting bare strings/ints to Var/Const."""
    return Atom(table, [_lift(a) for a in args], location_index=location_index)


def _lift(value):
    if isinstance(value, Expression):
        return value
    if isinstance(value, str):
        if value == WILDCARD:
            return Const(WILDCARD)
        if value and (value[0].isupper() or value[0] == "_"):
            return Var(value)
        return Const(value)
    return Const(value)
