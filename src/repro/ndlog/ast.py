"""Abstract syntax tree for NDlog / µDlog programs.

The grammar follows Section 2.1 and Figure 3 of the paper.  A program is a
sequence of rules; each rule has a head atom, body atoms (joined tables),
selection predicates (comparisons) and assignments.  Location specifiers
(``@X``) mark the column of an atom that names the node on which the tuple
resides.

Programs are values.  Every node is a frozen dataclass whose sequences are
tuples (a list passed to a constructor is stored as a tuple), so a node
supports ``==`` and hashing, can be handed to anyone without a defensive
copy, and is edited with :func:`dataclasses.replace`, which keeps the source
position.  Nodes are shared, not copied: a repair (:mod:`repro.repair.apply`)
builds its program by replacing the rules it edits, and every other rule of
the result *is* the base program's object.  Facts derived from a rule or a
program (its plan shape, its name index, its dependency graph) are
computed once per value (:class:`_Memoized`), because the value can no
longer change under them.  ``to_ndlog()`` pretty-prints a node and
round-trips through :mod:`repro.ndlog.parser`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple, Union

from ..wire import NOT_ON_WIRE


#: Sentinel used for wildcard values (the ``*`` in the paper, e.g. Q5's
#: ``Sip' := *`` meaning "match any source IP").
WILDCARD = "*"

#: Comparison operators allowed in selection predicates (Figure 3).
COMPARISON_OPERATORS = ("==", "!=", "<", ">", "<=", ">=")

#: Arithmetic operators allowed inside expressions.
ARITHMETIC_OPERATORS = ("+", "-", "*", "/", "%")

#: The field options of a parser position (``line``/``column``).
_POSITION = dict(default=None, compare=False, repr=False, metadata=NOT_ON_WIRE)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expressions appearing in selections and assignments
    (a tagged union on the wire: each subclass carries a ``kind``)."""

    def variables(self):
        """Return the set of variable names referenced by this expression."""
        return set()

    def to_ndlog(self):
        raise NotImplementedError

    def __str__(self):
        return self.to_ndlog()


@dataclass(frozen=True)
class Const(Expression):
    """A literal constant (integer, string or the wildcard ``*``)."""

    kind = "const"
    value: Union[int, str]

    def to_ndlog(self):
        if self.value == WILDCARD:
            return "*"
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


@dataclass(frozen=True)
class Var(Expression):
    """A variable reference (capitalised identifier in NDlog)."""

    kind = "var"
    name: str

    def variables(self):
        return {self.name}

    def to_ndlog(self):
        return self.name


@dataclass(frozen=True)
class BinOp(Expression):
    """A binary operation, either arithmetic or a comparison."""

    kind = "binop"
    op: str
    left: Expression
    right: Expression

    def variables(self):
        return self.left.variables() | self.right.variables()

    def is_comparison(self):
        return self.op in COMPARISON_OPERATORS

    def to_ndlog(self):
        return f"{self.left.to_ndlog()} {self.op} {self.right.to_ndlog()}"


@dataclass(frozen=True)
class FuncCall(Expression):
    """A call to a built-in function such as ``f_unique()`` or ``f_match()``."""

    kind = "call"
    name: str
    args: Tuple[Expression, ...] = ()

    def variables(self):
        out = set()
        for arg in self.args:
            out |= arg.variables()
        return out

    def to_ndlog(self):
        rendered = ", ".join(a.to_ndlog() for a in self.args)
        return f"{self.name}({rendered})"


# ---------------------------------------------------------------------------
# Atoms, selections, assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
            the atom came from the parser.  Excluded from equality, hash,
            repr and the wire so positional metadata never influences
            program diffing or candidate signatures.
    """

    table: str
    args: Tuple[Expression, ...]
    location_index: Optional[int] = 0
    negated: bool = False
    line: Optional[int] = field(**_POSITION)
    column: Optional[int] = field(**_POSITION)

    def __post_init__(self):
        if type(self.args) is not tuple:
            object.__setattr__(self, "args", tuple(self.args))

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


@dataclass(frozen=True)
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

    def to_ndlog(self):
        return self.expr.to_ndlog()

    def __str__(self):
        return self.to_ndlog()


@dataclass(frozen=True)
class Assignment:
    """An assignment of an expression to a head variable, e.g. ``Prt := 2``."""

    var: str
    expr: Expression

    def variables(self):
        return self.expr.variables()

    def to_ndlog(self):
        return f"{self.var} := {self.expr.to_ndlog()}"

    def __str__(self):
        return self.to_ndlog()


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------


class _Memoized:
    """Facts derived from an immutable node, computed once per instance.

    The node cannot change, so nothing derived from it goes stale, and a rule
    shared by many programs is analysed once for all of them.  Facts sit in
    the instance ``__dict__`` beside the dataclass fields, never among them:
    ``==``, ``hash`` and ``repr`` are generated from the fields alone, and
    :func:`dataclasses.replace` builds the new value from the fields alone.
    """

    def memo(self, fact, compute):
        """``compute(self)``, evaluated the first time ``fact`` is asked."""
        try:
            return self.__dict__[fact]
        except KeyError:
            value = self.__dict__[fact] = compute(self)
            return value


@dataclass(frozen=True)
class Rule(_Memoized):
    """A single NDlog rule.

    A rule fires when there is a variable assignment that matches every body
    atom against an existing tuple and satisfies every selection predicate;
    assignments then compute values for head variables that are not bound by
    the body.
    """

    name: str
    head: Atom
    body: Tuple[Atom, ...] = ()
    selections: Tuple[Selection, ...] = ()
    assignments: Tuple[Assignment, ...] = ()
    #: 1-based source position of the rule name when parsed from text
    #: (``None`` for programmatically built rules).  Excluded from equality,
    #: hash, repr and the wire so positions never affect program diffing.
    line: Optional[int] = field(**_POSITION)
    column: Optional[int] = field(**_POSITION)

    def __post_init__(self):
        for name in ("body", "selections", "assignments"):
            if type(getattr(self, name)) is not tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def to_ndlog(self):
        parts = [a.to_ndlog() for a in self.body]
        parts += [s.to_ndlog() for s in self.selections]
        parts += [a.to_ndlog() for a in self.assignments]
        body_text = ", ".join(parts)
        return f"{self.name} {self.head.to_ndlog()} :- {body_text}."

    def __str__(self):
        return self.to_ndlog()


@dataclass(frozen=True)
class Program(_Memoized):
    """A collection of rules forming an NDlog program."""

    rules: Tuple[Rule, ...] = ()
    name: str = "program"

    def __post_init__(self):
        if type(self.rules) is not tuple:
            object.__setattr__(self, "rules", tuple(self.rules))

    def rule_index(self, name):
        """Position of the first rule with the given name (``KeyError``)."""
        return self.memo("rule_positions", _first_positions)[name]

    def rules_deriving(self, table):
        """Return all rules whose head populates ``table``."""
        return [r for r in self.rules if r.head.table == table]

    def to_ndlog(self):
        return "\n".join(rule.to_ndlog() for rule in self.rules) + "\n"

    def __str__(self):
        return self.to_ndlog()

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


def _first_positions(program):
    positions = {}
    for index, rule in enumerate(program.rules):
        positions.setdefault(rule.name, index)
    return positions
