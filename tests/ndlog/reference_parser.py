"""Parser for NDlog / µDlog surface syntax.

The accepted syntax matches the paper's examples, e.g.::

    r1 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), WebLoadBalancer(@C,Hdr,Prt), Swi == 1.
    r2 FlowTable(@Swi,Hdr,Prt) :- PacketIn(@C,Swi,Hdr), Swi == 1, Hdr == 53, Prt := 2.

A rule is ``<name> <head> :- <terms>.`` where each term is either a body atom
(``Table(@Loc, Arg, ...)``), a selection predicate (``Expr op Expr`` with a
comparison operator) or an assignment (``Var := Expr``).  Rule names are
optional; anonymous rules receive sequential names ``r1``, ``r2``, ...

Comments start with ``//`` or ``#`` and run to the end of the line.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ndlog.ast import (
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
from repro.ndlog.errors import ParseError


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TWO_CHAR = (":-", ":=", "==", "!=", "<=", ">=")
_ONE_CHAR = "(),.@<>+-*/%"


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source):
    """Split ``source`` into a list of tokens, dropping comments."""
    tokens = []
    line = 1
    column = 1
    index = 0
    length = len(source)
    while index < length:
        ch = source[index]
        if ch == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if ch in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index) or ch == "#":
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith(tuple(_TWO_CHAR), index):
            for op in _TWO_CHAR:
                if source.startswith(op, index):
                    tokens.append(Token("op", op, line, column))
                    index += len(op)
                    column += len(op)
                    break
            continue
        if ch == '"':
            end = source.find('"', index + 1)
            if end == -1:
                raise ParseError("unterminated string literal", line, column)
            tokens.append(Token("string", source[index + 1 : end], line, column))
            column += end - index + 1
            index = end + 1
            continue
        if ch.isdigit() or (ch == "-" and index + 1 < length and source[index + 1].isdigit()
                            and (not tokens or tokens[-1].kind in ("op", "punct"))
                            and (not tokens or tokens[-1].text not in (")",))):
            start = index
            index += 1
            while index < length and source[index].isdigit():
                index += 1
            tokens.append(Token("number", source[start:index], line, column))
            column += index - start
            continue
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] in "_'"):
                index += 1
            tokens.append(Token("ident", source[start:index], line, column))
            column += index - start
            continue
        if ch in _ONE_CHAR or ch == "!":
            kind = "punct" if ch in "(),.@" else "op"
            tokens.append(Token(kind, ch, line, column))
            index += 1
            column += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.anonymous_counter = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset=0) -> Optional[Token]:
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            if self.tokens:
                last = self.tokens[-1]
                raise ParseError("unexpected end of input", last.line, last.column)
            raise ParseError("unexpected end of input")
        self.pos += 1
        return token

    def _expect(self, text) -> Token:
        token = self._next()
        if token.text != text:
            raise ParseError(
                f"expected {text!r}, found {token.text!r}", token.line, token.column
            )
        return token

    def _at(self, text, offset=0):
        token = self._peek(offset)
        return token is not None and token.text == text

    # -- grammar ------------------------------------------------------------

    def parse_program(self, name="program"):
        rules = []
        while self._peek() is not None:
            rules.append(self.parse_rule())
        return Program(rules=rules, name=name)

    def parse_rule(self):
        start = self._peek()
        name = self._parse_rule_name()
        head = self.parse_atom()
        if head.negated:
            raise ParseError(
                f"rule head {head.table!r} must not be negated",
                head.line or 0, head.column or 0)
        self._expect(":-")
        body, selections, assignments = [], [], []
        while True:
            term = self._parse_term()
            if isinstance(term, Atom):
                body.append(term)
            elif isinstance(term, Selection):
                selections.append(term)
            else:
                assignments.append(term)
            token = self._next()
            if token.text == ".":
                break
            if token.text != ",":
                raise ParseError(
                    f"expected ',' or '.', found {token.text!r}",
                    token.line,
                    token.column,
                )
        return Rule(name=name, head=head, body=body,
                    selections=selections, assignments=assignments,
                    line=start.line if start else None,
                    column=start.column if start else None)

    def _parse_rule_name(self):
        # A rule name is an identifier immediately followed by another
        # identifier (the head table).  Without a name the head table is
        # followed directly by "(".
        first = self._peek()
        second = self._peek(1)
        if (
            first is not None
            and second is not None
            and first.kind == "ident"
            and second.kind == "ident"
        ):
            self._next()
            return first.text
        self.anonymous_counter += 1
        return f"r{self.anonymous_counter}"

    def parse_atom(self):
        negated = False
        if self._at("!"):
            self._next()
            negated = True
        table_token = self._next()
        if table_token.kind != "ident":
            raise ParseError(
                f"expected table name, found {table_token.text!r}",
                table_token.line,
                table_token.column,
            )
        self._expect("(")
        args = []
        location_index = None
        if not self._at(")"):
            while True:
                if self._at("@"):
                    self._next()
                    location_index = len(args)
                args.append(self.parse_expression())
                if self._at(","):
                    self._next()
                    continue
                break
        self._expect(")")
        return Atom(table_token.text, args, location_index=location_index,
                    negated=negated, line=table_token.line,
                    column=table_token.column)

    def _parse_term(self):
        # Negated body atom: "!" ident "(" ...
        token = self._peek()
        nxt = self._peek(1)
        after = self._peek(2)
        if (token is not None and token.text == "!" and nxt is not None
                and nxt.kind == "ident" and after is not None and after.text == "("):
            return self.parse_atom()
        # Body atom: ident "(" ...
        if token is not None and token.kind == "ident" and nxt is not None and nxt.text == "(":
            # Distinguish function-call selections (f_match(...) == True) from
            # atoms by looking for a trailing comparison operator; plain
            # function calls used as whole terms are treated as selections.
            saved = self.pos
            atom = self.parse_atom()
            if self._peek() is not None and self._peek().text in COMPARISON_OPERATORS:
                self.pos = saved
            else:
                return atom
        # Assignment: Var ":=" expr
        if token is not None and token.kind == "ident" and nxt is not None and nxt.text == ":=":
            var_token = self._next()
            self._next()  # consume ':='
            expr = self.parse_expression()
            return Assignment(var_token.text, expr)
        # Otherwise a selection predicate.
        left = self.parse_expression()
        op_token = self._next()
        if op_token.text not in COMPARISON_OPERATORS:
            raise ParseError(
                f"expected comparison operator, found {op_token.text!r}",
                op_token.line,
                op_token.column,
            )
        right = self.parse_expression()
        return Selection(BinOp(op_token.text, left, right))

    # Expressions: additive over multiplicative over primary.

    def parse_expression(self):
        return self._parse_additive()

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while self._peek() is not None and self._peek().text in ("+", "-"):
            op = self._next().text
            right = self._parse_multiplicative()
            left = BinOp(op, left, right)
        return left

    def _parse_multiplicative(self):
        left = self._parse_primary()
        while self._peek() is not None and self._peek().text in ("*", "/", "%"):
            # "*" followed by "," or ")" is the wildcard constant, not a
            # multiplication; only treat it as an operator when an operand
            # follows.
            nxt = self._peek(1)
            if self._peek().text == "*" and (nxt is None or nxt.text in (",", ")", ".")):
                break
            op = self._next().text
            right = self._parse_primary()
            left = BinOp(op, left, right)
        return left

    def _parse_primary(self):
        token = self._next()
        if token.kind == "number":
            return Const(int(token.text))
        if token.kind == "string":
            return Const(token.text)
        if token.text == "*":
            return Const(WILDCARD)
        if token.text == "(":
            expr = self.parse_expression()
            self._expect(")")
            return expr
        if token.kind == "ident":
            if self._at("("):
                self._next()
                args = []
                if not self._at(")"):
                    while True:
                        args.append(self.parse_expression())
                        if self._at(","):
                            self._next()
                            continue
                        break
                self._expect(")")
                return FuncCall(token.text, tuple(args))
            lowered = token.text.lower()
            if lowered == "true":
                return Const(1)
            if lowered == "false":
                return Const(0)
            return Var(token.text)
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_program(source, name="program") -> Program:
    """Parse NDlog source text into a :class:`~repro.ndlog.ast.Program`."""
    return _Parser(tokenize(source)).parse_program(name=name)


def parse_rule(source) -> Rule:
    """Parse a single rule (must end with a period)."""
    parser = _Parser(tokenize(source))
    rule = parser.parse_rule()
    if parser._peek() is not None:
        extra = parser._peek()
        raise ParseError(
            f"unexpected trailing input {extra.text!r}", extra.line, extra.column
        )
    return rule


def parse_expression(source) -> Expression:
    """Parse a standalone expression (used in tests and repair synthesis).

    A single trailing comparison is allowed, so both ``"Swi + 1"`` and
    ``"Swi == 2"`` parse.
    """
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    token = parser._peek()
    if token is not None and token.text in COMPARISON_OPERATORS:
        parser._next()
        right = parser.parse_expression()
        expr = BinOp(token.text, expr, right)
    if parser._peek() is not None:
        extra = parser._peek()
        raise ParseError(
            f"unexpected trailing input {extra.text!r}", extra.line, extra.column
        )
    return expr
