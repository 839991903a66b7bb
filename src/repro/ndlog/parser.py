"""Parser for NDlog / µDlog surface syntax.

The accepted syntax matches the paper's examples, e.g.::

    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
    r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.

A rule is ``<name> <head> :- <terms>.`` where each term is either a body atom
(``Table(@Loc, Arg, ...)``), a selection predicate (``Expr op Expr`` with a
comparison operator) or an assignment (``Var := Expr``).  Rule names are
optional; anonymous rules receive sequential names ``r1``, ``r2``, ...

Comments start with ``//`` or ``#`` and run to the end of the line.

A rule costs its text.  One compiled pattern scans the source in a single
``finditer`` pass into parallel lists of token texts, kinds and offsets,
skipping whitespace and comments inside the pattern; only a ``-`` before
digits takes a second look (it signs the number after an operator or any
punctuation but ``)``).  Line and column come from a token's offset, by
bisecting the source's newline offsets, and only for a ``Rule``, an ``Atom``
or a ``ParseError``.  The descent reads the lists directly, padded with
sentinels instead of end-of-input checks, and takes a name or number that
``,`` ``)`` ``.`` or a comparison follows as an operand without descending
through the expression grammar.  Three pitfalls of such a scanner:

* the whitespace-and-comment prefix must be possessive (``*+``), or ``//.``
  backtracks into the tokens ``/``, ``/``, ``.``;
* ``finditer`` silently skips what it cannot match, so the pattern ends in a
  catch-all (a stray character or unterminated ``"`` is the error) and an
  end-of-input alternative;
* no regex class is ``str.isalpha``/``isalnum``/``isdigit`` (``\\d`` is
  ``isdecimal``), so a non-ASCII source's classes list its own non-ASCII
  letters and digits: ``é`` and ``٣`` read as ever, and ``²`` is a number
  that ``int`` refuses (a ``ParseError``).
"""

from __future__ import annotations

import re
from bisect import bisect_right

from .ast import (
    Assignment,
    Atom,
    BinOp,
    COMPARISON_OPERATORS,
    Const,
    Expression,
    FuncCall,
    Program,
    Rule,
    Selection,
    Var,
    WILDCARD,
)
from .errors import ParseError


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_TOKEN = (
    r"(?:[ \t\r\n]+|//[^\n]*|#[^\n]*)*+"
    r"(?:(?P<ident>[A-Za-z{alpha}_][A-Za-z0-9{alnum}_']*)"
    r"|(?P<punct>[(),.@])"
    r"|(?P<op>:-|:=|==|!=|<=|>=|[<>+*/%!]|-(?![0-9{digit}]))"
    r"|(?P<number>[0-9{digit}]+)"
    r'|"(?P<string>[^"]*)"'
    r"|(?P<minus>-)"
    r'|(?P<quote>")'
    r"|(?P<stray>.)"
    r"|\Z)"
)
_ASCII_TOKEN = re.compile(_TOKEN.format(alpha="", alnum="", digit=""),
                          re.DOTALL)
_ASCII_CHARACTERS = frozenset(map(chr, range(128)))
_NEWLINE = re.compile("\n")
_PLAIN = frozenset(("ident", "punct", "op", "number"))


def _newlines(source):
    """``-1`` (the break before line 1), then the offset of each newline."""
    return [-1] + [match.start() for match in _NEWLINE.finditer(source)]


def _position(newlines, offset):
    """1-based (line, column) of ``offset``."""
    line = bisect_right(newlines, offset)
    return line, offset - newlines[line - 1]


def _scan(source):
    """Parallel lists of token texts, kinds and start offsets of ``source``
    (a string token's text is its content, its offset its opening quote)."""
    if source.isascii():
        pattern = _ASCII_TOKEN
    else:
        # The classes add the source's non-ASCII letters and digits; ``re``
        # caches the compiled pattern.
        extra = sorted(set(source) - _ASCII_CHARACTERS)
        pattern = re.compile(_TOKEN.format(
            alpha="".join(filter(str.isalpha, extra)),
            alnum="".join(filter(str.isalnum, extra)),
            digit="".join(filter(str.isdigit, extra))), re.DOTALL)
    texts, kinds, offsets, minuses = [], [], [], []
    for match in pattern.finditer(source):
        kind = match.lastgroup
        if kind in _PLAIN:
            texts.append(match[kind])
            offsets.append(match.start(kind))
        elif kind == "string":
            texts.append(match[kind])
            offsets.append(match.start(kind) - 1)
        elif kind == "minus":
            minuses.append(len(texts))
            texts.append("-")
            offsets.append(match.start(kind))
        elif kind is None:
            break
        else:
            message = ("unterminated string literal" if kind == "quote"
                       else f"unexpected character {match[kind]!r}")
            raise ParseError(message, *_position(_newlines(source),
                                                 match.start(kind)))
        kinds.append(kind)
    for index in reversed(minuses):
        # The next token is the digits the ``-`` was scanned before.
        if index == 0 or (kinds[index - 1] in ("op", "punct")
                          and texts[index - 1] != ")"):
            texts[index] += texts.pop(index + 1)
            kinds[index] = "number"
            del kinds[index + 1], offsets[index + 1]
        else:
            kinds[index] = "op"
    return texts, kinds, offsets


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

_COMPARISONS = frozenset(COMPARISON_OPERATORS)
_ADDITIVE = frozenset(("+", "-"))
_MULTIPLICATIVE = frozenset(("*", "/", "%"))
#: What may follow a wildcard ``*`` (otherwise ``*`` multiplies).
_WILDCARD_END = frozenset((",", ")", "."))
#: What may follow an operand that is its own expression.
_OPERAND_END = _WILDCARD_END | _COMPARISONS
_OPERANDS = frozenset(("ident", "number"))
_BOOLEANS = {"true": 1, "false": 0}


class _Syntax(Exception):
    """A syntax error at a token index; :meth:`_Parser.run` makes it a
    ``ParseError`` at that token's position."""


class _Parser:
    __slots__ = ("texts", "kinds", "offsets", "end", "newlines", "pos",
                 "anonymous")

    def __init__(self, source):
        self.texts, self.kinds, self.offsets = _scan(source)
        self.end = len(self.offsets)
        # Lookahead reads sentinels past the last token instead of checking
        # for the end of input: no production matches an empty text or kind.
        self.texts += ("", "", "")
        self.kinds += ("", "", "")
        self.newlines = _newlines(source)
        self.pos = 0
        self.anonymous = 0

    def run(self, production, *args):
        """``production(self, *args)``, which must read every token.  A
        syntax error or too deep a nesting is a ``ParseError`` at its token;
        past the last token, the end of input (at the last token)."""
        try:
            result = production(self, *args)
            if self.pos < self.end:
                raise _Syntax(self.pos, "unexpected trailing input "
                                        f"{self.texts[self.pos]!r}")
            return result
        except RecursionError:
            index, message = self.pos, "expression nested too deeply"
        except _Syntax as error:
            index, message = error.args
        if index < self.end:
            raise ParseError(message, *self.position(index))
        if self.end:
            raise ParseError("unexpected end of input",
                             *self.position(self.end - 1))
        raise ParseError("unexpected end of input")

    def position(self, index):
        return _position(self.newlines, self.offsets[index])

    def expect(self, text):
        pos = self.pos
        if self.texts[pos] != text:
            raise _Syntax(pos, f"expected {text!r}, found {self.texts[pos]!r}")
        self.pos = pos + 1

    # -- grammar ------------------------------------------------------------

    def program(self, name):
        rules = []
        while self.pos < self.end:
            rules.append(self.rule())
        return Program(tuple(rules), name)

    def rule(self):
        texts, kinds = self.texts, self.kinds
        start = self.pos
        # A rule name is an identifier immediately followed by another
        # identifier (the head table).  Without a name the head table is
        # followed directly by "(".
        if kinds[start] == "ident" and kinds[start + 1] == "ident":
            name = texts[start]
            self.pos = start + 1
        else:
            self.anonymous += 1
            name = f"r{self.anonymous}"
        head = self.atom()
        if head.negated:
            raise ParseError(f"rule head {head.table!r} must not be negated",
                             head.line or 0, head.column or 0)
        self.expect(":-")
        body, selections, assignments = [], [], []
        terms = {Atom: body, Selection: selections, Assignment: assignments}
        while True:
            term = self.term()
            terms[type(term)].append(term)
            pos = self.pos
            self.pos = pos + 1
            if texts[pos] == ".":
                break
            if texts[pos] != ",":
                raise _Syntax(pos, f"expected ',' or '.', found {texts[pos]!r}")
        return Rule(name, head, tuple(body), tuple(selections),
                    tuple(assignments), *self.position(start))

    def atom(self):
        texts = self.texts
        negated = texts[self.pos] == "!"
        table = self.pos + negated
        if self.kinds[table] != "ident":
            raise _Syntax(table,
                          f"expected table name, found {texts[table]!r}")
        self.pos = table + 1
        args, location_index = self.arguments(located=True)
        return Atom(texts[table], args, location_index, negated,
                    *self.position(table))

    def arguments(self, located):
        """``(`` expressions ``)``, and the index of the last one marked
        ``@`` when they are an atom's (``located``)."""
        texts = self.texts
        self.expect("(")
        args, location_index = [], None
        if texts[self.pos] != ")":
            while True:
                if located and texts[self.pos] == "@":
                    self.pos += 1
                    location_index = len(args)
                args.append(self.expression())
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        return tuple(args), location_index

    def term(self):
        texts, kinds = self.texts, self.kinds
        pos = self.pos
        # Negated body atom: "!" ident "(" ...
        if (texts[pos] == "!" and kinds[pos + 1] == "ident"
                and texts[pos + 2] == "("):
            return self.atom()
        if kinds[pos] == "ident":
            # Body atom: ident "(" ...  Distinguish function-call selections
            # (f_match(...) == True) from atoms by looking for a trailing
            # comparison operator; plain function calls used as whole terms
            # are treated as selections.
            if texts[pos + 1] == "(":
                atom = self.atom()
                if texts[self.pos] not in _COMPARISONS:
                    return atom
                self.pos = pos
            # Assignment: Var ":=" expr
            elif texts[pos + 1] == ":=":
                self.pos = pos + 2
                return Assignment(texts[pos], self.expression())
        # Otherwise a selection predicate: an expression never has a
        # comparison at its top, so only a comparison() of two does.
        expr = self.comparison()
        if not (isinstance(expr, BinOp) and expr.op in _COMPARISONS):
            raise _Syntax(self.pos, "expected comparison operator, found "
                                    f"{texts[self.pos]!r}")
        return Selection(expr)

    # Expressions: additive over multiplicative over primary.

    def expression(self):
        pos = self.pos
        if (self.texts[pos + 1] in _OPERAND_END
                and self.kinds[pos] in _OPERANDS):
            return self.primary()
        return self.additive()

    def additive(self):
        texts = self.texts
        left = self.multiplicative()
        while texts[self.pos] in _ADDITIVE:
            op = texts[self.pos]
            self.pos += 1
            left = BinOp(op, left, self.multiplicative())
        return left

    def multiplicative(self):
        texts = self.texts
        left = self.primary()
        while texts[self.pos] in _MULTIPLICATIVE:
            pos = self.pos
            # "*" followed by "," or ")" is the wildcard constant, not a
            # multiplication; only treat it as an operator when an operand
            # follows.
            if texts[pos] == "*" and (pos + 1 >= self.end
                                      or texts[pos + 1] in _WILDCARD_END):
                break
            self.pos = pos + 1
            left = BinOp(texts[pos], left, self.primary())
        return left

    def primary(self):
        texts = self.texts
        pos = self.pos
        kind, text = self.kinds[pos], texts[pos]
        self.pos = pos + 1
        if kind == "number":
            try:
                return Const(int(text))
            except ValueError:
                raise _Syntax(pos, f"invalid number {text!r}")
        if kind == "string":
            return Const(text)
        if text == "*":
            return Const(WILDCARD)
        if text == "(":
            expr = self.expression()
            self.expect(")")
            return expr
        if kind == "ident":
            if texts[self.pos] == "(":
                return FuncCall(text, self.arguments(located=False)[0])
            value = _BOOLEANS.get(text.lower())
            return Var(text) if value is None else Const(value)
        raise _Syntax(pos, f"unexpected token {text!r}")

    def comparison(self):
        """An expression with at most one trailing comparison."""
        expr = self.expression()
        op = self.texts[self.pos]
        if op in _COMPARISONS:
            self.pos += 1
            expr = BinOp(op, expr, self.expression())
        return expr



def parse_program(source, name="program") -> Program:
    """Parse NDlog source text into a :class:`~repro.ndlog.ast.Program`."""
    return _Parser(source).run(_Parser.program, name)


def parse_rule(source) -> Rule:
    """Parse a single rule (must end with a period)."""
    return _Parser(source).run(_Parser.rule)


def parse_expression(source) -> Expression:
    """Parse a standalone expression (used in tests and repair synthesis).

    A single trailing comparison is allowed, so both ``"Swi + 1"`` and
    ``"Swi == 2"`` parse.
    """
    return _Parser(source).run(_Parser.comparison)
