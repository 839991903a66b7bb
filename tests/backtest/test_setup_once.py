"""A backtester builds once what no replay changes.

* **The topology.**  A scenario builds its topology once, as a template,
  which its trace factory reads, and every replay — Diagnose's, the
  baseline's and each candidate's — runs on a replica: the template's
  hosts, links and adjacency, shared, and switches and flow tables of its
  own, each table a copy of the template's in install order.  A topology
  with pre-installed entries (a small Stanford campus, whose core is
  configured proactively) must replay on a replica exactly as on a fresh
  build, and no replay may write the template, whether the backtester is
  reused or shared by threads.
* **The application.**  On the serial path a representative replays the
  patched program the vet already applied: each candidate is applied once.
"""

import sys
import threading

import pytest

from repro.backtest import Backtester
from repro.controllers.ndlog_controller import FieldMapping
from repro.repair import (ChangeConstant, DeleteSelection, RepairCandidate,
                          apply_candidate)
from repro.repair import apply as repair_apply
from repro.backtest import replay as backtest_replay
from repro.scenarios import NDlogScenario, Symptom, build_scenario
from repro.sdn.network import NetworkSimulator
from repro.sdn.packets import HTTP_PORT, Packet
from repro.sdn.switch import FlowEntry, FlowTable
from repro.sdn.topology import stanford_campus

from cases import flooding_candidate, scenario_candidates, stats_snapshot


# ---------------------------------------------------------------------------
# A small campus: a proactive core (4 routers) and three reactive edges
# ---------------------------------------------------------------------------

#: Edge switches 5, 6 and 7 carry hosts 1000-1003, 1004-1007 and
#: 1008-1011 on ports 10-13; each edge's uplink is its port 1.
CAMPUS_PROGRAM = """
// Deliver to edge 5's hosts.  The bug: the rule names edge 6.
c1 FlowTable(@Swi,Dip,Prt) :- PacketIn(@C,Swi,Dip), Swi == 6, Dip < 1004, Prt := Dip - 990.
// Other edges send edge 5's hosts up to the core.
c2 FlowTable(@Swi,Dip,Prt) :- PacketIn(@C,Swi,Dip), Swi > 5, Dip < 1004, Prt := 1.
// Deliver to edge 6's hosts, and send them up from the other edges.
c3 FlowTable(@Swi,Dip,Prt) :- PacketIn(@C,Swi,Dip), Swi == 6, Dip >= 1004, Dip < 1008, Prt := Dip - 994.
c4 FlowTable(@Swi,Dip,Prt) :- PacketIn(@C,Swi,Dip), Swi != 6, Swi > 4, Dip >= 1004, Dip < 1008, Prt := 1.
"""

CAMPUS_MAPPING = FieldMapping(packet_in_fields=("dst_ip",),
                              flow_entry_layout=("dst_ip", "out_port"))


def campus_topology():
    return stanford_campus(core_switches=4, edge_networks=3,
                           hosts_per_edge=4, name="campus")


def campus_trace(topology):
    one = []
    for source in (1005, 1006, 1008, 1009):
        for destination in (1000, 1001):
            one.append((topology.host(source).switch_id,
                        Packet(src_ip=source, dst_ip=destination,
                               dst_port=HTTP_PORT)))
    for source in (1001, 1002, 1010):
        one.append((topology.host(source).switch_id,
                    Packet(src_ip=source, dst_ip=1005, dst_port=HTTP_PORT)))
    return one * 3


def campus_scenario():
    return NDlogScenario(
        name="campus", description="edge routing under a proactive core",
        program_source=CAMPUS_PROGRAM, mapping=CAMPUS_MAPPING,
        topology_factory=campus_topology, trace_factory=campus_trace,
        symptom=Symptom(description="host 1000 receives nothing",
                        table="FlowTable", constraints={0: 5, 1: 1000},
                        node=5),
        target_host=1000, ks_threshold=0.5)


CAMPUS_CANDIDATES = [
    RepairCandidate(edits=(ChangeConstant("c1", 0, "right", 6, 5),),
                    cost=1.1, description="c1: Swi==6 -> Swi==5"),
    RepairCandidate(edits=(DeleteSelection("c1", 0, "Swi == 6"),),
                    cost=2.0, description="c1: delete Swi==6"),
    RepairCandidate(edits=(ChangeConstant("c2", 0, "right", 5, 6),),
                    cost=1.1, description="c2: Swi>5 -> Swi>6"),
]


def tables(topology):
    """Every switch's entries, in install order."""
    return {switch_id: switch.flow_table.entries()
            for switch_id, switch in topology.switches.items()}


def fresh_replay(scenario, repaired=None):
    """A replay on a freshly built topology: ``(stats, tables)``."""
    topology = scenario.build_topology()
    controller = (scenario.build_controller() if repaired is None else
                  scenario.build_controller(
                      program=repaired.program,
                      extra_tuples=repaired.inserted_tuples))
    simulator = NetworkSimulator(
        topology, controller,
        require_packet_out=scenario.require_packet_out,
        record_ingress=False)
    simulator.run_trace(scenario.trace())
    return stats_snapshot(simulator.stats), tables(topology)


def template_replay(backtester, repaired):
    """A replay on a replica of ``backtester``'s template."""
    simulator, _controller = backtester._candidate_network(repaired)
    simulator.run_trace(backtester._trace())
    return stats_snapshot(simulator.stats), tables(simulator.topology)


def rows(report):
    return [(result.candidate.description, result.effective,
             result.accepted, result.ks, result.notes,
             stats_snapshot(result.stats)) for result in report.results]


# ---------------------------------------------------------------------------
# The topology: a template, replicas, and pre-installed entries
# ---------------------------------------------------------------------------


def test_the_campus_core_is_preinstalled_and_carries_the_replays():
    scenario = campus_scenario()
    template = Backtester(scenario)._template()
    core = {switch_id: len(entries)
            for switch_id, entries in tables(template).items()
            if entries}
    assert core == {1: 12, 2: 12, 3: 12, 4: 12}
    fixed = apply_candidate(scenario.program, CAMPUS_CANDIDATES[0])
    stats, after = fresh_replay(scenario, fixed)
    delivered, dropped, total = stats[0], stats[1], stats[2]
    # Every packet crosses the core on its routes and is delivered.
    assert (dropped, total) == (0, 33) and sum(delivered.values()) == 33
    assert all(after[switch_id][:12] == tables(template)[switch_id]
               for switch_id in core)


def test_a_preinstalled_topology_replays_on_a_replica_as_on_a_fresh_build():
    scenario = campus_scenario()
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    assert stats_snapshot(backtester.baseline()) == \
        fresh_replay(scenario)[0]
    report = backtester.evaluate_all(CAMPUS_CANDIDATES)
    for candidate, result in zip(CAMPUS_CANDIDATES, report.results):
        repaired = apply_candidate(scenario.program, candidate)
        expected_stats, expected_tables = fresh_replay(scenario, repaired)
        assert stats_snapshot(result.stats) == expected_stats
        assert template_replay(backtester, repaired) == \
            (expected_stats, expected_tables)
    assert [result.accepted for result in report.results] == \
        [True, False, False]


def test_replays_leave_the_template_unchanged():
    scenario = campus_scenario()
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    template = backtester._template()
    before = tables(template)
    first = rows(backtester.evaluate_all(CAMPUS_CANDIDATES))
    assert backtester._template() is template
    assert tables(template) == before
    # A reused backtester reads the same rows off the same template.
    assert rows(backtester.evaluate_all(CAMPUS_CANDIDATES)) == first
    assert tables(template) == before
    replica = template.replica()
    assert replica.hosts is template.hosts
    for switch_id, switch in replica.switches.items():
        original = template.switches[switch_id]
        assert switch is not original
        assert switch.flow_table is not original.flow_table
        assert switch.links is original.links


def test_a_session_builds_its_topology_once():
    """The trace factory, Diagnose's recorded run and the backtester all
    read the scenario's one template, and the report equals a fresh
    session's."""
    from repro.api import RepairConfig, RepairSession

    config = RepairConfig.for_scenario("Q1", max_candidates=14)
    scenario = build_scenario("Q1")
    built = []
    factory = scenario.topology_factory

    def counting():
        built.append(1)
        return factory()

    scenario.topology_factory = counting
    session = RepairSession(config, scenario=scenario)
    report = session.run()
    assert len(built) == 1
    assert session.backtester._template() is scenario.template()
    assert report.backtest.vetoed_count + report.backtest.shared_count < \
        len(report.backtest.results)
    fresh = RepairSession(config).run()
    assert report.to_wire()["results"] == fresh.to_wire()["results"]


def test_threads_sharing_one_backtester_replay_as_one():
    # More threads than cores and a short switch interval: a replay that
    # wrote the shared template would move another thread's statistics.
    scenario = campus_scenario()
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    serial = [stats_snapshot(backtester.evaluate(candidate).stats)
              for candidate in CAMPUS_CANDIDATES]
    before = tables(backtester._template())
    results = {}
    barrier = threading.Barrier(4)

    def work(thread):
        barrier.wait()
        results[thread] = [
            stats_snapshot(backtester.evaluate(candidate).stats)
            for _ in range(3) for candidate in CAMPUS_CANDIDATES]

    threads = [threading.Thread(target=work, args=(index,))
               for index in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {index: serial * 3 for index in range(4)}
    assert tables(backtester._template()) == before


def test_a_copied_flow_table_keeps_install_order_and_its_own_installs():
    table = FlowTable()
    first = FlowEntry.create({"dst_ip": 7}, 1)
    second = FlowEntry.create({"dst_ip": 7}, 2)
    wildcard = FlowEntry.create({"dst_ip": "*"}, 3, priority=0)
    for entry in (first, second, wildcard, first):   # first re-installed
        table.install(entry)
    copy = table.copy()
    assert copy.entries() == table.entries() == [second, wildcard, first]
    packet = Packet(src_ip=1, dst_ip=7)
    assert copy.lookup(packet) is table.lookup(packet) is second
    copy.install(FlowEntry.create({"dst_ip": 7}, 4, priority=5))
    assert len(copy) == 4 and len(table) == 3
    assert table.lookup(packet) is second


# ---------------------------------------------------------------------------
# The application: the vet's applied program replays
# ---------------------------------------------------------------------------


@pytest.fixture
def applications(monkeypatch):
    """Counts every ``apply_candidate`` call, the vet's and the
    backtester's."""
    calls = []

    def counting(program, candidate):
        calls.append(candidate.description)
        return apply_candidate(program, candidate)

    monkeypatch.setattr(repair_apply, "apply_candidate", counting)
    monkeypatch.setattr(backtest_replay, "apply_candidate", counting)
    return calls


@pytest.mark.parametrize("static_vet", [True, False],
                         ids=["vet", "no-vet"])
def test_a_serial_backtest_applies_each_candidate_once(applications,
                                                       static_vet):
    scenario = build_scenario("Q1")
    candidates = scenario_candidates("Q1") + [flooding_candidate()]
    report = Backtester(scenario, ks_threshold=scenario.ks_threshold,
                        static_vet=static_vet).evaluate_all(candidates)
    assert report.vetoed_count + report.shared_count < len(candidates)
    assert sorted(applications) == \
        sorted(candidate.description for candidate in candidates)


def test_a_fabric_workers_unit_applies_its_own_candidate(applications):
    scenario = build_scenario("Q1")
    candidate = scenario_candidates("Q1")[0]
    backtester = Backtester(scenario, ks_threshold=scenario.ks_threshold)
    serial = backtester.evaluate_all([candidate]).results[0]
    assert applications == [candidate.description]
    outcome = backtester.evaluate_outcome(candidate)
    assert applications == [candidate.description] * 2
    assert stats_snapshot(outcome.result.stats) == \
        stats_snapshot(serial.stats)
