"""Shared helpers for the static-analysis test suite.

Candidate generation (history index + meta-provenance exploration) is the
expensive part, so it is cached per scenario for the whole test session and
shared between the dependency-graph regression, the constant-propagation
checks and the differential soundness suite.
"""

from repro.analysis import CandidateVetter
from repro.meta.explorer import MetaProvenanceExplorer
from repro.scenarios import build_scenario

from padded_programs import padded_program

#: Candidate budget used throughout; large enough that the support-insert
#: proposals (cost 2.0) materialise in every scenario.
MAX_CANDIDATES = 25

_cache = {}


def scenario_and_candidates(name, max_candidates=MAX_CANDIDATES,
                            total_rules=None):
    """(scenario, candidates) for ``name``, cached across the session; with
    ``total_rules``, the scenario's program is padded to that many rules."""
    key = (name, max_candidates, total_rules)
    if key not in _cache:
        scenario = build_scenario(name)
        history = scenario.history_index()
        if total_rules is not None:
            scenario.program = padded_program(scenario, total_rules)
        explorer = MetaProvenanceExplorer(
            scenario.program, history, max_candidates=max_candidates)
        candidates = explorer.explore_missing(scenario.goal()).candidates
        _cache[key] = (scenario, candidates)
    return _cache[key]


def vetter_for(scenario, program=None):
    """The vetter the backtester builds for ``scenario``, over ``program``
    (the scenario's own by default)."""
    mapping = scenario.mapping
    return CandidateVetter(
        scenario.program if program is None else program,
        schemas={schema.name: schema for schema in scenario.schemas()},
        static_tuples=scenario.static_tuples,
        event_tables={mapping.packet_in_table},
        flow_table=mapping.flow_table)
