"""The committed broken-program corpus: no file lints clean.

Each ``broken_programs/*.ndlog`` file exhibits one class of fault the
analyzer must catch — unsafe variables, arity mismatches, type clashes,
duplicate (no-op) rules — or, for the four negation files, one the parser
refuses: NDlog here has no negation, so ``!Table(...)`` is a parse error at
its ``!``.  The corpus is the negative half of the lint gate: scenarios lint
clean, these never do.
"""

import pathlib

import pytest

from repro.analysis import lint_program
from repro.cli import main
from repro.ndlog.errors import ParseError
from repro.ndlog.parser import parse_program

CORPUS = pathlib.Path(__file__).parent / "broken_programs"

#: The parser's message for a negated atom.
NEGATION = "negation is not supported"

#: file -> the finding code that file was written to trigger, or
#: ``NEGATION`` for the files the parser refuses.
EXPECTED_CODES = {
    "unsafe_assignment.ndlog": "unsafe-variable",
    "unsafe_head.ndlog": "unsafe-variable",
    "unsafe_selection.ndlog": "unsafe-variable",
    "unsafe_negation.ndlog": NEGATION,
    "unstratified_negation.ndlog": NEGATION,
    "self_negation.ndlog": NEGATION,
    "stratified_negation.ndlog": NEGATION,
    "arity_mismatch.ndlog": "arity-inconsistent",
    "head_arity_vs_schema.ndlog": "arity-inconsistent",
    "type_clash.ndlog": "type-clash",
    "duplicate_rule.ndlog": "duplicate-rule",
}


def corpus_files(refused=None):
    """Every corpus file, or only those the parser refuses (``True``) or
    reads (``False``)."""
    return [path for path in sorted(CORPUS.glob("*.ndlog"))
            if refused is None
            or (EXPECTED_CODES.get(path.name) == NEGATION) == refused]


def test_corpus_is_big_enough():
    assert len(corpus_files()) >= 10


def test_every_corpus_file_has_an_expectation():
    assert {path.name for path in corpus_files()} == set(EXPECTED_CODES)


@pytest.mark.parametrize("path", corpus_files(refused=False),
                         ids=lambda p: p.name)
def test_corpus_file_produces_expected_finding(path):
    program = parse_program(path.read_text(), name=path.name)
    findings = lint_program(program)
    assert findings, f"{path.name} should not lint clean"
    assert EXPECTED_CODES[path.name] in {f.code for f in findings}


@pytest.mark.parametrize("path", corpus_files(refused=False),
                         ids=lambda p: p.name)
def test_corpus_findings_carry_source_positions(path):
    program = parse_program(path.read_text(), name=path.name)
    for finding in lint_program(program):
        assert finding.line is not None and finding.line >= 1
        assert finding.column is not None and finding.column >= 1
        assert finding.render(path.name).startswith(
            f"{path.name}:{finding.line}:{finding.column}: ")


@pytest.mark.parametrize("path", corpus_files(refused=True),
                         ids=lambda p: p.name)
def test_a_negation_file_is_refused_at_its_bang(path):
    text = path.read_text()
    with pytest.raises(ParseError) as excinfo:
        parse_program(text, name=path.name)
    error = excinfo.value
    assert error.message == NEGATION
    assert text.splitlines()[error.line - 1][error.column - 1] == "!"


def test_cli_lint_flags_every_corpus_file(capsys):
    for path in corpus_files(refused=False):
        assert main(["lint", str(path), "--quiet"]) == 1
        out = capsys.readouterr().out
        assert path.name in out
    for path in corpus_files(refused=True):
        assert main(["lint", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: (parse) {NEGATION}" in err and str(path) in err
