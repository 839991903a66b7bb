"""The parser against its predecessor: same ASTs, positions and errors.

``reference_parser`` is the character-by-character tokenizer and
token-object parser that :mod:`repro.ndlog.parser` replaced, kept verbatim
(imports aside) as an oracle.  Every entry point — ``parse_program``,
``parse_rule`` and ``parse_expression`` — must give the oracle's result on
the corpus (the Q1–Q5 programs, the µDlog meta rules, Q1 padded to 40 rules,
the lint corpus, their lines and their expressions) and on Hypothesis
mutants of it: the same node types and fields, ``line``/``column`` included
(they are ``compare=False``, so ``==`` would not see them), or a
``ParseError`` with the same message, line and column.

The comparison knows three differences, two of them defects of the oracle
that the parser fixes:

* where the oracle raises anything but ``ParseError`` (``int('²')``, a
  number over the interpreter's digit limit, nesting deeper than the
  recursion limit), the parser raises ``ParseError``;
* the oracle does not count the newlines inside a string literal, so after
  such a literal its positions are wrong; there only the positions are left
  out of the comparison;
* where the oracle builds a negated atom (``!Table(...)``, in a head or a
  body), the parser raises ``ParseError("negation is not supported")`` at
  the ``!``: NDlog here has no negation.  The oracle still calls ``Atom``
  with the ``negated`` flag the AST no longer has, so it is handed the
  :class:`Atom` below, which takes the flag and reports a negated atom.

The parser never raises anything but ``ParseError``.
"""

import dataclasses
import pathlib
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import reference_parser
from metarules import MUDLOG_META_RULES_SOURCE
from repro.ndlog import ParseError, ast, parse_expression, parse_program, parse_rule
from repro.scenarios import SCENARIO_BUILDERS, build_q1, build_scenario

from padded_programs import padded_source

LINT_CORPUS = pathlib.Path(__file__).parent.parent / "analysis" / "broken_programs"


class _Negated(Exception):
    """The oracle built a negated atom whose table name is at
    ``(line, column)``."""


class Atom(ast.Atom):
    """The AST's ``Atom`` as the oracle builds one, with a ``negated``
    flag: a negated atom is reported, not built."""

    negated = False

    def __init__(self, *args, negated=False, **kwargs):
        if negated:
            raise _Negated(kwargs["line"], kwargs["column"])
        super().__init__(*args, **kwargs)


reference_parser.Atom = Atom

SOURCES = (
    [build_scenario(name).program_source for name in sorted(SCENARIO_BUILDERS)]
    + [MUDLOG_META_RULES_SOURCE, padded_source(build_q1(), 40)]
    + [path.read_text() for path in sorted(LINT_CORPUS.glob("*.ndlog"))])
LINES = sorted({line for source in SOURCES for line in source.splitlines()
                if line.strip()})
#: The sources without negation parse; their terms seed the expressions.
PARSED = [program for source in SOURCES if "!" not in source.replace("!=", "")
          for program in [parse_program(source)]]
EXPRESSIONS = sorted({str(term)
                      for program in PARSED
                      for rule in program.rules
                      for term in rule.selections + rule.assignments}
                     | {str(term.expr)
                        for program in PARSED
                        for rule in program.rules
                        for term in rule.assignments})
CORPUS = SOURCES + LINES + EXPRESSIONS
#: Inputs at the corners of the scanner and the expression grammar.
EDGES = [
    "", " ", "//", "#", "\"", "\"\"", "-", "-1", "--1", "1-1", "1 -1", "(-1)",
    ")-1", "(X)-1", "f(X)-1 == 2", "X-1", "X -1", "\"a\"-1", "*", "X *", "X * ,", "X * Y", "f()",
    "f(X) + 1", "f(X) * 2 == Y", "f(X)(1)", "1(2)",
    "f(X, ) == 1", "f(1 2) == 3", "!X", "!f(X) == 1", "X := ", "r T(@X) :-",
    "r T(@X) :- U(@X).", "r T(@X) :- U(@X). extra", "r !T(@X) :- U(@X).",
    "T(@X) :- U(@X), !V(@X).", "r T(@X) :- U(@X), \")\" == 1.",
    "r T(@X) :- U(\")\").", "r T(@X) :- U(@X) \".\"", "X \"+\" 1",
    "Xé + 1", "é == 1", "٣ + 1", "X == ²", "X٣ == 1", "½", "X½ == 1",
    "a\fb", "a\rb", "x'y == 1", "'x", "a//b\nc", "a#b\nc", ":", "=",
    "True", "FALSE", "(((1)))", "((1)", "1 ≤ 2",
    "r1 A(@X) :- B(@X), X == \"a\nb\", Y == 1 2.",
    "r1 A(@X) :- B(@X), X == \"a\nb\", Y == \u00b2.",
]
#: What the mutants insert: grammar characters, the non-ASCII letter, digit
#: and superscript, form feed, carriage return, comments and quotes.
FRAGMENTS = tuple("(),.@:-=!<>+*/%\"#\n 1X_") + (
    "é", "٣", "²", "\f", "\r", "//", "#", "\"", ":-", ":=", "==")
GRAMMAR = frozenset("(),.@:-=!<>+*/%\"#")
ENTRY_POINTS = {
    "program": (parse_program, reference_parser.parse_program),
    "rule": (parse_rule, reference_parser.parse_rule),
    "expression": (parse_expression, reference_parser.parse_expression),
}
#: A string literal as the reference tokenizer finds one: at a token start,
#: which is never inside a comment or another literal.
_OLD_TOKENS = re.compile(r'//[^\n]*|#[^\n]*|"([^"]*)"|.', re.DOTALL)


def _reads_a_string_across_lines(source):
    return any(match.group(1) and "\n" in match.group(1)
               for match in _OLD_TOKENS.finditer(source))


def _shape(node, positions):
    """``node`` as nested tuples of types and every field's value."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            (field.name, _shape(getattr(node, field.name), positions))
            for field in dataclasses.fields(node)
            if positions or field.name not in ("line", "column"))
    if isinstance(node, tuple):
        return tuple(_shape(item, positions) for item in node)
    return type(node).__name__, node


def _outcome(parse, text, positions):
    try:
        return "parsed", _shape(parse(text), positions)
    except ParseError as exc:
        return ("ParseError", exc.message) + (
            (exc.line, exc.column) if positions else ())


def _oracle(parse, text, positions):
    try:
        return _outcome(parse, text, positions)
    except (ValueError, RecursionError) as exc:
        return "crashed", type(exc).__name__
    except _Negated as negated:
        return ("negated",) + (negated.args if positions else ())


def _offset(text, line, column):
    lines = text.split("\n")
    return sum(len(before) + 1 for before in lines[:line - 1]) + column - 1


#: What separates two tokens: whitespace and comments.
_GAP = re.compile(r"(?:[ \t\r\n\f]+|//[^\n]*|#[^\n]*)*")


def assert_same_as_the_reference(text):
    positions = not _reads_a_string_across_lines(text)
    for entry, (parse, reference) in ENTRY_POINTS.items():
        expected = _oracle(reference, text, positions)
        if expected[0] == "crashed":
            got = _outcome(parse, text, positions=True)
            assert got[0] == "ParseError" and got[2] >= 1, (entry, text, got)
        elif expected[0] == "negated":
            got = _outcome(parse, text, positions=True)
            assert got[:2] == ("ParseError", "negation is not supported"), (
                entry, text, got)
            bang = _offset(text, *got[2:])
            assert text[bang] == "!", (entry, text, got)
            table = _GAP.match(text, bang + 1).end()
            if positions:       # the oracle's table name follows the "!"
                assert _offset(text, *expected[1:]) == table, (entry, text)
        else:
            assert _outcome(parse, text, positions) == expected, (entry, text)


def test_the_corpus_is_what_it_says():
    assert len(SOURCES) == 5 + 2 + 11
    assert len(parse_program(SOURCES[6]).rules) == 40
    assert len(LINES) > 100 and len(EXPRESSIONS) > 50


@pytest.mark.parametrize("text", CORPUS)
def test_the_corpus_parses_as_the_reference_does(text):
    assert_same_as_the_reference(text)


@pytest.mark.parametrize("text", EDGES)
def test_edge_cases_parse_as_the_reference_does(text):
    assert_same_as_the_reference(text)


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(1, 4))):
        grammar = [index for index, char in enumerate(text) if char in GRAMMAR]
        if grammar and draw(st.booleans()):
            index = draw(st.sampled_from(grammar))
            text = text[:index] + text[index + 1:]
        else:
            index = draw(st.integers(0, len(text)))
            text = text[:index] + draw(st.sampled_from(FRAGMENTS)) + text[index:]
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutants())
def test_mutants_parse_as_the_reference_does(text):
    assert_same_as_the_reference(text)


@pytest.mark.parametrize("entry, text", [
    ("expression", "X == " + "(" * 2000 + "1" + ")" * 2000),
    ("expression", "X == " + "9" * 5000),
    ("rule", "r1 A(@X) :- B(@X), X == \u00b2."),
])
def test_what_crashed_the_reference_is_a_parse_error(entry, text):
    parse, reference = ENTRY_POINTS[entry]
    assert _oracle(reference, text, True)[0] == "crashed"
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.line == 1 and excinfo.value.column >= 1
