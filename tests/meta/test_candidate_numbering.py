"""An exploration numbers its own candidates.

``explore_missing`` draws each attempt's candidate id from a counter of
its own that starts at 1, so a session's tags (the ``v201`` of a report
row) depend on the session alone: a second session in the same process,
with no reset between, and two sessions run side by side on two threads
each report exactly what a fresh run does.  The process-global counter
(``reset_candidate_ids``) numbers only candidates built by hand.
"""

import sys
import threading

import pytest

from repro.api import RepairConfig, RepairSession
from repro.repair import RepairCandidate, reset_candidate_ids

CONFIGS = {"Q1@14": RepairConfig.for_scenario("Q1", max_candidates=14),
           "Q2": RepairConfig.for_scenario("Q2"),
           "Q4": RepairConfig.for_scenario("Q4")}


def wire(config):
    """A session's report wire minus its wall-clock ``timings``."""
    report = RepairSession(config).run().to_wire()
    report.pop("timings", None)
    return report


@pytest.fixture(scope="module")
def fresh():
    """Each config's report as a fresh process numbers it."""
    references = {}
    for name, config in CONFIGS.items():
        reset_candidate_ids()
        references[name] = wire(config)
    return references


def test_q1_at_14_suggests_its_fresh_tags_in_every_session():
    for _ in range(2):
        session = RepairSession(CONFIGS["Q1@14"])
        session.run()
        assert [result.candidate.tag
                for result in session.suggestions] == \
            ["v201", "v121", "v4", "v5", "v71"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_second_session_without_a_reset_equals_a_fresh_run(fresh, name):
    reset_candidate_ids()
    wire(CONFIGS[name])
    assert wire(CONFIGS[name]) == fresh[name]
    # Nor does the process-global counter's position move a tag.
    reset_candidate_ids(5000)
    assert wire(CONFIGS[name]) == fresh[name]


def test_sessions_on_threads_each_equal_a_fresh_run(fresh):
    # Four sessions (more than cores) interleaved at a short switch
    # interval: a shared counter would hand one session's ids to another.
    names = ["Q1@14", "Q2", "Q4", "Q1@14"]
    barrier = threading.Barrier(len(names))
    reports = {}

    def run(index, name):
        barrier.wait()
        reports[index] = [wire(CONFIGS[name]) for _ in range(2)]

    threads = [threading.Thread(target=run, args=(index, name))
               for index, name in enumerate(names)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == {index: [fresh[name]] * 2
                       for index, name in enumerate(names)}


def test_a_hand_built_candidate_still_draws_the_global_counter():
    reset_candidate_ids(7)
    assert [RepairCandidate(edits=(), cost=1.0).candidate_id
            for _ in range(2)] == [7, 8]
    RepairSession(CONFIGS["Q2"]).run()
    assert RepairCandidate(edits=(), cost=1.0).candidate_id == 9
