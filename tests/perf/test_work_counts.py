"""Work-count tripwire: how much a serial repair *does*, pinned exactly.

A wall-clock reading on a shared host cannot tell a 10 % regression from
noise; a count can tell one extra fixpoint.  Q1 (at the paper's
``max_candidates=14``) and Q4 run serially with telemetry on, from a cold
plan cache, and the product's own ``repro.obs`` counters must equal the
pinned values: they are identical from run to run and across
``PYTHONHASHSEED`` values.  The Python-level call count of the same run (a
``sys.setprofile`` hook, the ledger's ``api.python_calls``) catches work no
counter sees, such as an accidentally quadratic helper; it moves by a
fraction of a percent with what earlier tests already imported, and with the
interpreter's minor version, so it gets a ceiling instead of equality.

A failure prints every count that moved and the dict to paste into
``PINNED`` when the change is intended.

The same call counter states two costs without a clock.  "A FlowMod is
O(1)": one ``FlowTable.install`` plus one ``lookup`` must make the same number
of Python calls into ``repro/sdn`` on a table of 10 entries as on one of
1,000.  "A repair costs its edit, not the program": applying a one-rule
candidate makes the same number of Python calls on Q1's 8 rules as on Q1
padded to 250 — the rules it shares with the base are shared by identity.
"An exploration explains what it returns": one ``explore_missing`` makes a
pinned number of calls into ``repro/meta`` on Q1's 8 rules and on Q1 padded to
250, and fewer than 100 per returned candidate under the function that builds
a candidate's meta provenance tree — a tree per *attempt* would show up as a
count here, not as a slower ``program_heavy``.  "An exploration builds only
what it returns": the same exploration constructs one ``RepairCandidate`` per
returned candidate (210 on 8 rules and 2,872 on 250 while every attempt was
one), and its ``ExplorationStats`` stay pinned.
"A tuple fires only the rules it can match": one PacketIn makes the same
number of calls into ``repro/ndlog`` on Q1's 8 rules as on Q1 padded to 250,
and a serial 250-rule, 14-candidate session enters ``CompiledRule.fire`` a
pinned number of times (232,548 when every PacketIn was offered to every rule)
— a change that re-broadens the engine's rule dispatch fails that by name.
"A hop is one tuple probe": a flow-table hit makes the same number of calls
into ``repro/sdn`` whether the entry matches one field or six — at most 2,
``Switch.lookup`` and ``FlowTable.lookup``.  "A replayed packet is one
destination": a replayed packet that hits at every hop makes one call into
``repro/sdn`` for ``inject``, one for the hop loop and one
``FlowTable.lookup`` per hop — the port a hop enters the next switch on is
read from the link record, not asked of ``port_to`` — and a replay leaves
nothing behind per packet but an int in ``TrafficStats.destinations`` — no
record object, no path, no delivery log.
"A PacketIn costs its firing": on Q1's base replay the typical table miss
whose PacketIn derives a flow entry makes at most 28 Python calls, the
PacketIn, the rule firing, the FlowMod and the PacketOut included (41 while
``NDTuple`` was a dataclass built, hashed and compared in Python, the
fixpoint probed the store before each insert and copied its dispatch
entries per trigger, and a FlowMod went through ``Switch.install``; 68 while
every insert re-checked its schema through two properties, probed for key
conflicts in keyless tables and hashed a tuple twice, and every FlowEntry
was built from a re-sorted dict), and one the empty-response memo answers
at most 7 (8, and 9 before that).
"A session borrows the fleet": three ``fabric_spawn``-shaped sessions in one
process launch exactly 2 worker processes (6 while every session started and
reaped a fleet of its own).
"A candidate's veto costs its edit": the backtester's static prefilter of a
rule-edit candidate makes the same number of calls into ``repro/`` on Q1's 8
rules as on Q1 padded to 250, and the 14 candidates of the padded program
stay under a ceiling — a tuple insert costs the rules that read its table,
which is its edit's cone.
"A rule shape compiles once": a session on a cold plan cache compiles
the same number of plan code objects on Q1's 8 rules as on 250, switching to
a candidate that changes only a constant compiles none, and the 250-rule
Diagnose stage stays under a call ceiling.
"A session replays the trace once per program": a serial Q1@14 session
injects exactly ``len(trace) x (1 + candidates replayed)`` packets — the
buggy program's one replay is Diagnose's, which is also the backtest
baseline (one trace more while the backtest replayed a baseline of its own).
"A rule costs its text": ``parse_program`` makes the same number of calls
into ``repro/ndlog`` per rule (±1) on Q1 padded to 40 rules as on 250, at
most 60 (310 while the tokenizer built a ``Token`` per token and the parser
read each through ``_peek``/``_at``).
"""

import collections
import os
import statistics
import sys
import tracemalloc

import pytest

from repro.api import RepairConfig, RepairSession, TelemetryConfig
from repro.backtest import Backtester
from repro.distrib import WorkerPool, close_parked_fleets
from repro.meta import MetaProvenanceExplorer, explorer
from repro.ndlog import Engine, parse_program, plan
from repro.ndlog.plan import PLAN_CACHE, CompiledRule
from repro.repair import (ChangeConstant, ChangeTuple, DeleteTuple,
                          InsertTuple, RepairCandidate, apply_candidate)
from repro.scenarios import build_q1
from repro.sdn import switch
from repro.sdn.network import NetworkSimulator
from repro.sdn.packets import Packet
from repro.sdn.switch import FlowEntry, FlowTable, Switch

from padded_programs import padded_program, padded_source

COUNTERS = ("engine_fixpoints", "rules_fired", "tuples_derived",
            "packets_replayed", "plan_cache_misses", "candidates_backtested",
            "candidates_vetoed")

#: ``python_calls`` was pinned on CPython 3.11 in a fresh interpreter (76,974
#: and 26,459 while candidates switched on a warm engine and ``NDTuple`` was
#: a dataclass hashed, built and compared in Python).
#: ``plan_cache_misses`` counts plan code compiled, one per rule shape: 11 and
#: 9 while a plan was compiled per rule text.
PINNED = {
    "Q1": {"engine_fixpoints": 778, "rules_fired": 866, "tuples_derived": 842,
           "packets_replayed": 2808, "plan_cache_misses": 8,
           "candidates_backtested": 14, "candidates_vetoed": 2,
           "python_calls": 50472},
    "Q4": {"engine_fixpoints": 160, "rules_fired": 248, "tuples_derived": 248,
           "packets_replayed": 1280, "plan_cache_misses": 5,
           "candidates_backtested": 11, "candidates_vetoed": 1,
           "python_calls": 20075},
}
#: Calls into ``repro/meta`` of one 14-candidate exploration of Q1's goal
#: (explorer construction included), by number of rules in the program.
#: 2,737 and 63,479 while a ``RepairCandidate`` was built per attempt, every
#: rule re-ran the same history lookup and a ``MetaProgram`` was extracted.
PINNED_EXPLORE_CALLS = {8: 1567, 250: 22379}
#: What the same explorations search, by number of rules: building the
#: candidates lazily must not change it.
PINNED_EXPLORATION_STATS = {
    8: {"work_items_processed": 48, "history_lookups": 9,
        "solver_invocations": 2, "candidates_generated": 14},
    250: {"work_items_processed": 774, "history_lookups": 251,
          "solver_invocations": 2, "candidates_generated": 14},
}
#: ``CompiledRule.fire`` entries of one serial session over Q1 padded to 250
#: rules, 14 candidates.  1,154 while Diagnose replayed on a recording engine
#: (no empty-response memo) and the backtest replayed a baseline of its own;
#: 1,066 while candidates switched on a warm engine, before every candidate
#: ran its own static fixpoint.
PINNED_FIRE_ENTRIES_250_RULES = 1186
#: Plan code objects one 14-candidate session compiles on a cold plan cache,
#: on Q1's 8 rules and on 250 alike (19 and 261 while a plan was compiled
#: per rule text).
PINNED_SESSION_COMPILES = 10
#: Python calls of the Diagnose stage over Q1 padded to 250 rules on a cold
#: plan cache (49,098 while a plan was compiled per rule text and keyed by
#: its rendered text; 19,513 on a warm cache).
DIAGNOSE_CALLS_CEILING_250_RULES = 20000
EXPLAIN_CALLS_PER_CANDIDATE = 100
#: Calls into ``repro/sdn`` of one ``Switch.lookup``.  Before compiled match
#: keys a hit cost 5 with one match field and 10 with six (``header()``, one
#: generator frame per field ...), a miss past one residual ``*`` entry 7 and 12.
LOOKUP_HIT_CALLS_CEILING = 2
LOOKUP_MISS_CALLS_CEILING = 4
#: Calls into ``repro/sdn`` of one replayed Q1 packet that hits at every hop,
#: by hops walked: before compiled match keys (15 / 24 / 33, when every hop
#: built a header dict), and the ceiling now.  Until the hop loop read the
#: flow table and the port map itself and stopped building a delivery record
#: it was 7 / 12 / 17 (``Switch.lookup``, ``is_drop``, ``neighbor`` and
#: ``record_delivery`` were calls of their own), and until each switch kept
#: a link record per port 3 / 5 / 7 (one ``port_to`` per further hop).
PARENT_CALLS_PER_HIT_PACKET = {1: 15, 2: 24, 3: 33}
HIT_PACKET_CALLS_CEILING = {1: 3, 2: 4, 3: 5}
#: Python calls under one table miss on Q1's base replay, by what answered
#: the PacketIn: the median of those that derive one flow entry (25 when
#: this was written; 41 while ``NDTuple`` was a dataclass, whose init, hash
#: and equality ran in Python, and 68 before that) and the most any
#: memo-answered one makes (6; 8 and 9 before).  The first misses of a
#: replay also materialise indexes and compile flow-table signatures, hence
#: a median.
PACKET_IN_CALLS_CEILING = {"derives a flow entry": 28,
                           "answered by the memo": 7}
#: How many misses of that replay fall in each class.
PACKET_INS_BY_CLASS = {"derives a flow entry": 56, "answered by the memo": 16}
#: Memory blocks a second replay of Q1's trace x4 (936 packets, every flow
#: entry already installed) may still hold when it returns: one delivery
#: record per packet plus the log that listed them held 1,882 (9 when this
#: was written, four of them the snapshot's own).
RETAINED_BLOCKS_CEILING = 50
#: Worker processes three 2-worker spawn sessions of one process launch.
PINNED_WORKER_LAUNCHES_3_SESSIONS = 2
#: Calls into ``repro/`` of one static prefilter of the 14 explorer
#: candidates of Q1 padded to 250 rules.  41,108 while the backtest took the
#: linter's whole verdict, the findings of every pass over the patched
#: program (2,630 on Q1's 8 rules).
PREFILTER_CALLS_CEILING_250_RULES = 6000
#: Calls into ``repro/ndlog`` of ``parse_program`` on Q1 padded to 250 rules,
#: and the ceiling per rule.  77,318 (309.3 per rule; 310.7 on 40 rules)
#: while a character loop built a ``Token`` per token.
PINNED_PARSE_CALLS_250_RULES = 12769
PARSE_CALLS_PER_RULE_CEILING = 60
PYTHON_CALLS_CEILING = 1.10
TUPLE_EDITS = (InsertTuple, DeleteTuple, ChangeTuple)
SDN_PACKAGE = os.path.dirname(switch.__file__)
META_PACKAGE = os.path.dirname(explorer.__file__)
NDLOG_PACKAGE = os.path.dirname(plan.__file__)
REPRO_PACKAGE = os.path.dirname(META_PACKAGE)


def _python_calls(call, under="", entering=None):
    """Python-level calls ``call()`` makes; with ``under``, only those into
    code whose file path contains it — which leaves out whatever finalizers a
    garbage collection happens to run inside the window; with ``entering``,
    only the entries of that one function."""
    calls = 0
    code = entering and entering.__code__

    def profiler(frame, event, arg):
        nonlocal calls
        if (event == "call" and under in frame.f_code.co_filename
                and code in (None, frame.f_code)):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture(scope="module", params=sorted(PINNED))
def work(request):
    """(scenario name, counts of one serial telemetry-on session)."""
    PLAN_CACHE.clear()
    session = RepairSession(RepairConfig.for_scenario(
        request.param, max_candidates=14, telemetry=TelemetryConfig()))
    counts = {"python_calls": _python_calls(session.run)}
    snapshot = session.telemetry.metrics.snapshot()
    for counter in COUNTERS:
        counts[counter] = int(sum(value for name, _labels, value
                                  in snapshot["counters"] if name == counter))
    return request.param, counts


def _repin_hint(name, counts):
    return (f"if the change is intended, set PINNED[{name!r}] in "
            f"{__file__} to {counts}")


def test_obs_counters_are_exactly_the_pinned_ones(work):
    name, counts = work
    moved = {counter: f"pinned {PINNED[name][counter]}, now {counts[counter]}"
             for counter in COUNTERS
             if counts[counter] != PINNED[name][counter]}
    assert not moved, (f"{name} does a different amount of work: {moved}; "
                       + _repin_hint(name, counts))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="python_calls is pinned on CPython 3.11")
def test_python_calls_stay_under_the_ceiling(work):
    name, counts = work
    pinned = PINNED[name]["python_calls"]
    assert counts["python_calls"] <= pinned * PYTHON_CALLS_CEILING, (
        f"{name} makes {counts['python_calls']} Python calls, more than "
        f"{PYTHON_CALLS_CEILING:.2f} x the pinned {pinned}; "
        + _repin_hint(name, counts))


def test_install_and_lookup_cost_does_not_depend_on_table_size():
    def calls_on_a_table_of(size):
        table = FlowTable()
        for src_ip in range(size):
            table.install(FlowEntry.create({"src_ip": src_ip, "dst_port": 80},
                                           out_port=1))
        fresh = FlowEntry.create({"src_ip": size, "dst_port": 80}, out_port=2)
        packet = Packet(src_ip=size, dst_ip=1, dst_port=80)

        def flow_mod_then_packet():
            table.install(fresh)
            assert table.lookup(packet) is fresh

        return _python_calls(flow_mod_then_packet, under=SDN_PACKAGE)

    assert calls_on_a_table_of(10) == calls_on_a_table_of(1000)


def test_a_table_hit_costs_the_same_for_one_match_field_as_for_six():
    packet = Packet(src_ip=7, dst_ip=9, src_port=4000, dst_port=80)
    stranger = Packet(src_ip=8, dst_ip=9, src_port=4000, dst_port=80)
    match = {"src_ip": 7, "dst_ip": 9, "src_port": 4000, "dst_port": 80,
             "proto": "tcp", "in_port": 3}

    def calls_with_fields(count):
        node = Switch(1)
        entry = node.flow_table.install(FlowEntry.create(
            dict(list(match.items())[:count]), out_port=2))
        found = []
        hit = _python_calls(lambda: found.append(node.lookup(packet, 3)),
                            under=SDN_PACKAGE)
        # A miss also walks the residual ``*`` entries, one call each.
        node.flow_table.install(FlowEntry.create(
            {"src_ip": 99, "dst_port": "*"}, out_port=2))
        miss = _python_calls(lambda: found.append(node.lookup(stranger, 3)),
                             under=SDN_PACKAGE)
        assert found == [entry, None]
        return hit, miss

    assert calls_with_fields(1) == calls_with_fields(6)
    hit, miss = calls_with_fields(6)
    assert hit <= LOOKUP_HIT_CALLS_CEILING, hit
    assert miss <= LOOKUP_MISS_CALLS_CEILING, miss


def _q1_simulator(scenario):
    return NetworkSimulator(
        scenario.build_topology(), scenario.build_controller(program=None),
        require_packet_out=scenario.require_packet_out, record_ingress=False)


def test_a_replayed_hit_packet_costs_at_most_60_percent_of_what_it_did():
    scenario = build_q1()
    simulator = _q1_simulator(scenario)
    trace = scenario.trace()
    simulator.run_trace(trace)          # every reactive entry is installed
    stats, seen = simulator.stats, {}
    lookup = FlowTable.lookup.__code__
    for switch_id, packet in trace:
        packet_ins = stats.packet_in_count
        calls = hops = 0

        def profiler(frame, event, arg):
            nonlocal calls, hops
            if event == "call" and SDN_PACKAGE in frame.f_code.co_filename:
                calls += 1
                hops += frame.f_code is lookup

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            destination = simulator.inject(packet, switch_id)
        finally:
            sys.setprofile(previous)
        assert destination == stats.destinations[-1]
        if stats.packet_in_count == packet_ins:
            seen.setdefault(hops, set()).add(calls)
    assert sorted(seen) == sorted(HIT_PACKET_CALLS_CEILING)
    for hops, ceiling in HIT_PACKET_CALLS_CEILING.items():
        (calls,) = seen[hops]           # a hit costs its hops, nothing else
        parent = PARENT_CALLS_PER_HIT_PACKET[hops]
        assert calls <= ceiling, (
            f"a {hops}-hop hit packet makes {calls} calls into repro/sdn, "
            f"more than {ceiling} ({parent} with a header dict per hop)")


def test_a_packet_in_costs_its_firing(monkeypatch):
    scenario = build_q1()
    trace = scenario.trace()
    _q1_simulator(scenario).run_trace(trace)    # a warm plan cache
    simulator = _q1_simulator(scenario)
    miss = NetworkSimulator._handle_table_miss
    engine_insert = Engine.insert.__code__
    costs = collections.defaultdict(list)

    def measured(sim, switch_, packet, in_port):
        calls = inserts = 0

        def profiler(frame, event, arg):
            nonlocal calls, inserts
            if event == "call":
                calls += 1
                inserts += frame.f_code is engine_insert

        flow_mods = sim.stats.flow_mod_count
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            return miss(sim, switch_, packet, in_port)
        finally:
            sys.setprofile(previous)
            if sim.stats.flow_mod_count - flow_mods == 1:
                costs["derives a flow entry"].append(calls)
            elif not inserts:
                costs["answered by the memo"].append(calls)

    monkeypatch.setattr(NetworkSimulator, "_handle_table_miss", measured)
    simulator.run_trace(trace)
    assert {kind: len(calls) for kind, calls in costs.items()} == \
        PACKET_INS_BY_CLASS
    derives = statistics.median(costs["derives a flow entry"])
    memo = max(costs["answered by the memo"])
    assert derives <= PACKET_IN_CALLS_CEILING["derives a flow entry"], (
        f"a PacketIn that derives a flow entry makes {derives} calls "
        f"(median), more than {PACKET_IN_CALLS_CEILING['derives a flow entry']}"
        " (41 while NDTuple was a dataclass, 68 while the replay path "
        "re-checked, re-sorted and re-hashed per event)")
    assert memo <= PACKET_IN_CALLS_CEILING["answered by the memo"], (
        f"a memo-answered PacketIn makes {memo} calls, more than "
        f"{PACKET_IN_CALLS_CEILING['answered by the memo']} (8 before)")


def test_a_replayed_packet_allocates_no_record():
    scenario = build_q1()
    simulator = _q1_simulator(scenario)
    trace = scenario.trace() * 4
    simulator.run_trace(trace)          # every reactive entry is installed
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        simulator.run_trace(trace)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(simulator.stats.destinations) == 2 * len(trace) == 1872
    retained = sum(stat.count_diff
                   for stat in after.compare_to(before, "filename"))
    assert retained < RETAINED_BLOCKS_CEILING, (
        f"replaying {len(trace)} packets left {retained} memory blocks "
        f"behind (ceiling {RETAINED_BLOCKS_CEILING}): something is kept per "
        "packet besides its destination")


def test_three_spawn_sessions_launch_one_fleet(monkeypatch):
    """The ledger's ``fabric_spawn`` at smoke size (Q1, 14 candidates,
    ``transport="spawn"``, 2 workers), three sessions in one process."""
    launches = []
    launch = WorkerPool._launch_worker

    def counted_launch(pool):
        launches.append(pool)
        return launch(pool)

    monkeypatch.setattr(WorkerPool, "_launch_worker", counted_launch)
    config = RepairConfig.for_scenario("Q1", max_candidates=14,
                                       transport="spawn", workers=2)
    close_parked_fleets()               # start from no idle fleet
    try:
        for _ in range(3):
            RepairSession(config).run()
    finally:
        close_parked_fleets()
    assert len(launches) == PINNED_WORKER_LAUNCHES_3_SESSIONS, (
        f"three spawn sessions launched {len(launches)} workers, pinned "
        f"{PINNED_WORKER_LAUNCHES_3_SESSIONS} (6 when every session started "
        "its own fleet): a session stopped borrowing the parked fleet")


def test_apply_costs_the_edit_not_the_program():
    candidate = RepairCandidate(
        edits=(ChangeConstant("r1", 0, "right", 1, 3),), cost=1.0)

    def counts(program):
        repaired = []
        apply_calls = _python_calls(
            lambda: repaired.append(apply_candidate(program, candidate)))
        assert repaired[0].program.rule_named("r1") != program.rule_named("r1")
        return apply_calls

    small, large = (padded_program(build_q1(), rules) for rules in (8, 250))
    assert (len(small), len(large)) == (8, 250)
    assert counts(small) == counts(large)


def test_a_candidates_veto_costs_its_edit():
    def prefilter(total_rules):
        """The explorer's 14 candidates on Q1 padded to ``total_rules``, and
        a backtester that has prefiltered them once."""
        scenario = build_q1()
        history = scenario.history_index()
        scenario.program = padded_program(scenario, total_rules)
        candidates = MetaProvenanceExplorer(
            scenario.program, history, max_candidates=14,
        ).explore_missing(scenario.goal()).candidates
        backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
        backtester._prefilter(candidates)   # the baseline replay, the vetter
        return candidates, backtester

    candidates, small = prefilter(8)
    padded, large = prefilter(250)
    rule_edits = [candidate for candidate in candidates
                  if not any(isinstance(edit, TUPLE_EDITS)
                             for edit in candidate.edits)]
    assert len(rule_edits) == 11
    for candidate in rule_edits:
        on_8, on_250 = (
            _python_calls(lambda: backtester._prefilter([candidate]),
                          under=REPRO_PACKAGE)
            for backtester in (small, large))
        assert on_8 == on_250, (
            f"vetting {candidate.description!r} makes {on_8} calls into "
            f"repro/ on 8 rules and {on_250} on 250: a pass reads rules the "
            "candidate did not edit")

    assert len(padded) == 14
    calls = _python_calls(lambda: large._prefilter(padded),
                          under=REPRO_PACKAGE)
    assert calls <= PREFILTER_CALLS_CEILING_250_RULES, (
        f"prefiltering the 250-rule program's 14 candidates makes {calls} "
        f"calls into repro/, more than {PREFILTER_CALLS_CEILING_250_RULES} "
        "(41,108 when the backtest took the linter's whole verdict)")


def test_a_packet_in_costs_the_same_on_8_rules_as_on_250():
    scenario = build_q1()
    web, dns = (scenario.packet_in_tuple(1, Packet(src_ip=101, dst_ip=1,
                                                    dst_port=port))
                for port in (80, 53))

    def calls_on(program):
        engine = scenario.build_controller(program).engine
        return [_python_calls(lambda: derived.extend(engine.insert(packet_in)),
                              under=NDLOG_PACKAGE)
                for packet_in in (web, dns)]

    derived = []
    small, large = (padded_program(build_q1(), rules) for rules in (8, 250))
    assert calls_on(small) == calls_on(large)
    assert len(derived) == 4    # each PacketIn installed its flow entry


def test_fire_entries_of_a_250_rule_session_are_pinned():
    scenario = build_q1()
    scenario.program = padded_program(scenario, 250)
    session = RepairSession(RepairConfig(max_candidates=14),
                            scenario=scenario)
    PLAN_CACHE.clear()
    reports = []
    entries = _python_calls(lambda: reports.append(session.run()),
                            entering=CompiledRule.fire)
    assert len(reports[0].candidates) == 14
    assert entries == PINNED_FIRE_ENTRIES_250_RULES, (
        f"a 250-rule session entered CompiledRule.fire {entries} times, "
        f"pinned {PINNED_FIRE_ENTRIES_250_RULES}: a tuple is being offered "
        "to another set of rules than its guards select; if the change is "
        "intended, update PINNED_FIRE_ENTRIES_250_RULES")


@pytest.mark.parametrize("total_rules", sorted(PINNED_EXPLORE_CALLS))
def test_an_exploration_explains_what_it_returns(total_rules, monkeypatch):
    scenario = build_q1()
    program = padded_program(scenario, total_rules)
    history = scenario.history_index()
    explain = MetaProvenanceExplorer._explain
    explain_calls = []

    def counted_explain(*args):
        trees = []
        explain_calls.append(_python_calls(
            lambda: trees.append(explain(*args)), under=REPRO_PACKAGE))
        return trees[0]

    def explore():
        return MetaProvenanceExplorer(
            program, history, max_candidates=14).explore_missing(scenario.goal())

    calls = _python_calls(explore, under=META_PACKAGE)
    pinned = PINNED_EXPLORE_CALLS[total_rules]
    assert calls <= pinned * PYTHON_CALLS_CEILING, (
        f"one exploration of {total_rules} rules makes {calls} calls into "
        f"repro/meta, more than {PYTHON_CALLS_CEILING:.2f} x the pinned "
        f"{pinned}; if the change is intended, update PINNED_EXPLORE_CALLS")

    monkeypatch.setattr(MetaProvenanceExplorer, "_explain", counted_explain)
    assert len(explore().candidates) == len(explain_calls) == 14
    assert max(explain_calls) < EXPLAIN_CALLS_PER_CANDIDATE, explain_calls


@pytest.mark.parametrize("total_rules", sorted(PINNED_EXPLORATION_STATS))
def test_an_exploration_builds_only_what_it_returns(total_rules,
                                                    monkeypatch):
    scenario = build_q1()
    program = padded_program(scenario, total_rules)
    history = scenario.history_index()
    built = []
    init = RepairCandidate.__init__

    def counted_init(candidate, *args, **kwargs):
        built.append(candidate)
        init(candidate, *args, **kwargs)

    monkeypatch.setattr(RepairCandidate, "__init__", counted_init)
    result = MetaProvenanceExplorer(
        program, history, max_candidates=14).explore_missing(scenario.goal())
    assert len(built) == len(result.candidates) == 14, (
        f"an exploration of {total_rules} rules built {len(built)} "
        f"candidates to return {len(result.candidates)} (210 and 2,872 on "
        "8 and 250 rules when every attempt was one)")
    pinned = PINNED_EXPLORATION_STATS[total_rules]
    assert {name: getattr(result.stats, name) for name in pinned} == pinned


def test_a_rule_costs_its_text():
    def parse_calls(total_rules):
        source = padded_source(build_q1(), total_rules)
        programs = []
        calls = _python_calls(
            lambda: programs.append(parse_program(source)),
            under=NDLOG_PACKAGE)
        assert len(programs[0]) == total_rules
        return calls

    on_40, on_250 = parse_calls(40), parse_calls(250)
    per_rule = (on_40 / 40, on_250 / 250)
    assert abs(per_rule[0] - per_rule[1]) <= 1, (
        f"parsing costs {per_rule[0]:.1f} calls into repro/ndlog per rule on "
        f"40 rules and {per_rule[1]:.1f} on 250: the per-rule cost grows with "
        "the program")
    assert max(per_rule) <= PARSE_CALLS_PER_RULE_CEILING, (
        f"parsing costs {max(per_rule):.1f} calls into repro/ndlog per rule, "
        f"more than {PARSE_CALLS_PER_RULE_CEILING} (310 with a Token per "
        "token)")
    assert on_250 <= PINNED_PARSE_CALLS_250_RULES * PYTHON_CALLS_CEILING, (
        f"parsing 250 rules makes {on_250} calls into repro/ndlog, more than "
        f"{PYTHON_CALLS_CEILING:.2f} x the pinned "
        f"{PINNED_PARSE_CALLS_250_RULES}; if the change is intended, update "
        "PINNED_PARSE_CALLS_250_RULES")


def _padded_session(total_rules):
    scenario = build_q1()
    scenario.program = padded_program(scenario, total_rules)
    return RepairSession(RepairConfig(max_candidates=14), scenario=scenario)


@pytest.mark.parametrize("total_rules", [8, 250])
def test_a_cold_session_compiles_one_code_object_per_shape(total_rules):
    session = _padded_session(total_rules)
    PLAN_CACHE.clear()
    assert len(session.run().candidates) == 14
    assert PLAN_CACHE.misses == PINNED_SESSION_COMPILES, (
        f"a cold session over {total_rules} rules compiled "
        f"{PLAN_CACHE.misses} plan code objects, pinned "
        f"{PINNED_SESSION_COMPILES} on 8 rules and on 250 alike: plan code "
        "is keyed by something finer than the rule's shape")


def test_a_changed_constant_compiles_nothing():
    scenario = build_q1()
    PLAN_CACHE.clear()
    scenario.build_controller()
    candidate = RepairCandidate(
        edits=(ChangeConstant("r1", 0, "right", 1, 7),), cost=1.0)
    repaired = apply_candidate(scenario.program, candidate)
    compiled = PLAN_CACHE.misses
    scenario.build_controller(program=repaired.program)
    Engine(repaired.program)
    assert PLAN_CACHE.misses == compiled, (
        "a candidate that changes one constant compiled plan code: its rule "
        "has the shape of a rule already compiled")


def test_a_session_replays_the_trace_once_per_program():
    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    session = RepairSession(config)
    trace = session.scenario.trace()
    injected = _python_calls(session.run, entering=NetworkSimulator.inject)
    report = session.report()
    replayed = len(report.backtest.results) - report.backtest.vetoed_count
    assert (replayed, injected) == (12, len(trace) * (1 + replayed)), (
        f"a Q1@14 session injected {injected} packets for {replayed} "
        f"replayed candidates over a {len(trace)}-packet trace: the buggy "
        "program's one replay is Diagnose's, and it is the baseline")


def test_a_cold_250_rule_diagnose_stays_under_its_ceiling():
    session = _padded_session(250)
    session.scenario                    # the scenario build is its own stage
    PLAN_CACHE.clear()
    calls = _python_calls(lambda: session.run(until="diagnose"))
    assert calls <= DIAGNOSE_CALLS_CEILING_250_RULES, (
        f"Diagnose over 250 rules on a cold plan cache makes {calls} Python "
        f"calls, more than {DIAGNOSE_CALLS_CEILING_250_RULES} (49,098 while "
        "each rule text compiled a plan of its own)")
