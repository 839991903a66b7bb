"""Tier-1 lint gate: every registered scenario's program lints clean.

The ground-truth Q1-Q5 programs (with their schemas and static base data)
must produce zero findings — through the library entry point and through
``repro lint`` — so a rule or scenario edit that introduces an unsafe
variable, arity drift, or a duplicate rule fails the suite.  CI runs the
same CLI gate.

``repro lint <scenario> --candidates FILE`` vets candidate wires: a file's
candidates get the verdicts the in-process vetter gives them, and a file
that is not a list of candidate wires is a usage error, never a traceback.
"""

import json

import pytest

from repro.analysis import CandidateVetter, lint_scenario
from repro.cli import main
from repro.repair import CopyRule, RepairCandidate, candidate_to_wire
from repro.scenarios import SCENARIO_BUILDERS, build_scenario

from analysis_helpers import scenario_and_candidates
from helpers import rule_named


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_scenario_lints_clean(name):
    findings = lint_scenario(build_scenario(name))
    assert findings == [], [f.render(name) for f in findings]


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_cli_lint_gate(name, capsys):
    assert main(["lint", name, "--json"]) == 0
    wire = json.loads(capsys.readouterr().out)
    assert wire["clean"] is True
    assert wire["findings"] == []


def test_cli_lint_unknown_file_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing.ndlog")]) == 2
    capsys.readouterr()


def test_cli_lint_parse_error_reports_position(tmp_path, capsys):
    source = tmp_path / "bad.ndlog"
    source.write_text("r1 FlowTable(@Swi :- nothing\n")
    assert main(["lint", str(source)]) == 2
    err = capsys.readouterr().err
    assert f"{source}:1:" in err and "(parse)" in err


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 5000])
def test_cli_lint_unparseable_number_is_a_parse_error(tmp_path, capsys,
                                                      literal):
    source = tmp_path / "bad.ndlog"
    source.write_text(f"r1 A(@X) :- B(@X), X == {literal}.\n",
                      encoding="utf-8")
    assert main(["lint", str(source)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{source}:1:25: error: (parse) invalid number ")
    assert "Traceback" not in err


def _lint_candidates(tmp_path, capsys, candidates):
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps([candidate_to_wire(c) for c in candidates]))
    assert main(["lint", "q1", "--candidates", str(path), "--json"]) == 0
    return [(row["candidate_id"], row["verdict"], row["reason"])
            for row in json.loads(capsys.readouterr().out)["candidates"]]


def test_cli_lint_candidates_match_the_in_process_vetter(tmp_path, capsys):
    scenario, candidates = scenario_and_candidates("Q1")
    mapping = scenario.mapping
    vetter = CandidateVetter(
        scenario.program,
        schemas={schema.name: schema for schema in scenario.schemas()},
        static_tuples=scenario.static_tuples,
        event_tables={mapping.packet_in_table},
        flow_table=mapping.flow_table)
    expected = [(c.candidate_id, verdict.verdict, verdict.reason)
                for c in candidates
                for verdict in [vetter.vet_candidate(c)]]
    assert "reject" in {verdict for _, verdict, _ in expected}
    assert _lint_candidates(tmp_path, capsys, candidates) == expected


def _negated_atom_wire():
    """Q1's r1 copied, with its second body atom marked ``negated``: a key
    the ``Atom`` wire does not have, since NDlog here has no negation."""
    r1 = rule_named(build_scenario("Q1").program, "r1")
    wire = candidate_to_wire(RepairCandidate(
        edits=(CopyRule("r1", r1),), cost=1.0, candidate_id=1))
    wire["edits"][0]["new_rule"]["body"][1]["negated"] = True
    return json.dumps([wire])


CHANGE_CONSTANT = {"kind": "change_constant", "rule": "r1",
                   "selection_index": 0, "side": "right", "old_value": 1,
                   "new_value": 2}


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ("[{", "Expecting property name"),
    ('{"kind": "delete_selection"}', "expected a list of candidate wires"),
    ('[{"edits": [{"kind": "delete_selection"}], "cost": 1.0}]',
     "candidate 0: Edit 'delete_selection' key 'rule' is missing"),
    (json.dumps([{"edits": [dict(CHANGE_CONSTANT, selection_index="0")],
                  "cost": 1.0}]), "'selection_index' must be an integer"),
    ('[{"edits": [], "cost": "1"}]', "'cost' must be a number"),
    ('[{"edits": [], "cost": 1.0, "bogus": 1}]', "unknown candidate keys"),
    (_negated_atom_wire(), "candidate 0: unknown Atom keys: ['negated']"),
], ids=["missing", "not-json", "not-a-list", "missing-key", "string-index",
        "string-cost", "unknown-key", "negated-atom"])
def test_cli_lint_bad_candidate_file_is_usage_error(tmp_path, capsys, text,
                                                    message):
    path = tmp_path / "candidates.json"
    if text is not None:
        path.write_text(text)
    assert main(["lint", "q1", "--candidates", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro lint: {path}: ") and message in err, err
