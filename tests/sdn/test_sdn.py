"""Tests for the simulated SDN substrate (switches, topology, packets, log)."""

import pytest

from repro.sdn import (
    DNS_PORT,
    DROP_PORT,
    DROPPED,
    FlowEntry,
    FlowTable,
    HTTP_PORT,
    HistoricalLog,
    LOG_ENTRY_BYTES,
    NetworkSimulator,
    Packet,
    RecordingController,
    StaticController,
    FlowMod,
    Topology,
    figure1_topology,
    format_ip,
    http_request,
    stanford_campus,
)


def walk(sim, packet, at_switch=1):
    """Walk one packet through ``sim``: its destination."""
    return sim.run_trace([(at_switch, packet)]).destinations[-1]


class TestFlowTable:
    def test_exact_match_and_wildcards(self):
        entry = FlowEntry.create({"dst_port": 80}, out_port=1)
        assert entry.matches(http_request(1, 2))
        assert not entry.matches(Packet(src_ip=1, dst_ip=2, dst_port=53))

    def test_priority_wins(self):
        table = FlowTable()
        table.install(FlowEntry.create({"dst_port": 80}, out_port=1, priority=1))
        table.install(FlowEntry.create({"dst_port": 80}, out_port=9, priority=5))
        assert table.lookup(http_request(1, 2)).out_port == 9

    def test_first_installed_wins_ties(self):
        table = FlowTable()
        table.install(FlowEntry.create({"dst_port": 80}, out_port=1, priority=5))
        table.install(FlowEntry.create({"dst_port": 80}, out_port=2, priority=5))
        assert table.lookup(http_request(1, 2)).out_port == 1

    def test_exact_duplicates_deduplicated(self):
        table = FlowTable()
        table.install(FlowEntry.create({"dst_port": 80}, out_port=1))
        table.install(FlowEntry.create({"dst_port": 80}, out_port=1))
        assert len(table) == 1

    def test_unknown_match_field_rejected(self):
        with pytest.raises(ValueError):
            FlowEntry.create({"bogus": 1}, out_port=1)

    def test_table_miss_returns_none(self):
        assert FlowTable().lookup(http_request(1, 2)) is None


class TestTopology:
    def test_figure1_structure(self):
        topo = figure1_topology()
        assert topo.switch_count() == 3
        assert {h.role for h in topo.hosts.values()} == {"web", "dns", "client"}
        # S1 port 1 leads to S2, port 2 to S3 (matching the Figure 2 rules).
        assert topo.switch(1).ports[1] == ("switch", 2)
        assert topo.switch(1).ports[2] == ("switch", 3)

    def test_stanford_campus_sizes(self):
        topo = stanford_campus(core_switches=16, edge_networks=3, hosts_per_edge=10)
        assert topo.switch_count() == 19
        assert topo.host_count() == 30
        assert topo.hosts_with_role("web") and topo.hosts_with_role("dns")

    def test_core_routes_reach_every_host(self):
        topo = stanford_campus(core_switches=4, edge_networks=2, hosts_per_edge=3)
        # A core switch must have a route towards every host.
        core = topo.switch(1)
        assert len(core.flow_table) >= topo.host_count()

    def test_next_hop_port(self):
        topo = figure1_topology()
        assert topo.next_hop_port(1, 2) == 1
        assert topo.next_hop_port(1, 3) == 2
        assert topo.next_hop_port(1, 1) is None

    def test_port_towards_host(self):
        topo = figure1_topology()
        # H1 (id 11) sits behind S2; from S1 the next hop is port 1.
        assert topo.port_towards_host(1, 11) == 1
        assert topo.port_towards_host(2, 11) == 1


class TestSimulator:
    """A packet's fate is its destination; which switches it crossed shows
    in their flow tables and in where the PacketIns were raised."""

    def test_static_controller_forwards(self):
        topo = figure1_topology()
        mods = [FlowMod(1, FlowEntry.create({"dst_port": 80}, out_port=1)),
                FlowMod(2, FlowEntry.create({"dst_port": 80}, out_port=1))]
        recording = RecordingController(StaticController(mods))
        sim = NetworkSimulator(topo, recording)
        assert walk(sim, http_request(100, 11)) == 11
        assert sim.stats.destinations == [11]
        # S1 -> S2 -> H11: both hit, and S3 (empty) was never asked.
        assert [len(topo.switch(s).flow_table) for s in (1, 2, 3)] == [1, 1, 0]
        assert recording.packet_ins == []

    def test_table_miss_without_controller_response_drops(self):
        topo = figure1_topology()
        recording = RecordingController(StaticController([]))
        sim = NetworkSimulator(topo, recording)
        assert walk(sim, http_request(100, 11)) == DROPPED
        assert [event.switch_id for event in recording.packet_ins] == [1]
        assert (sim.stats.dropped, sim.stats.destinations) == (1, [DROPPED])

    def test_downstream_miss_is_raised_at_that_switch(self):
        topo = figure1_topology()
        mods = [FlowMod(1, FlowEntry.create({"dst_port": 80}, out_port=1))]
        recording = RecordingController(StaticController(mods))
        sim = NetworkSimulator(topo, recording)
        assert walk(sim, http_request(100, 11)) == DROPPED
        (event,) = recording.packet_ins
        assert event.switch_id == 2
        assert event.in_port == topo.switch(2).port_to("switch", 1)

    def test_drop_entry(self):
        topo = figure1_topology()
        mods = [FlowMod(1, FlowEntry.create({"dst_port": 80}, out_port=DROP_PORT))]
        recording = RecordingController(StaticController(mods))
        sim = NetworkSimulator(topo, recording)
        assert walk(sim, http_request(100, 11)) == DROPPED
        assert recording.packet_ins == [] and sim.stats.dropped == 1

    def test_stats_accumulate(self):
        topo = figure1_topology()
        mods = [FlowMod(1, FlowEntry.create({"dst_port": 80}, out_port=1)),
                FlowMod(2, FlowEntry.create({"dst_port": 80}, out_port=1))]
        sim = NetworkSimulator(topo, StaticController(mods))
        for _ in range(5):
            walk(sim, http_request(100, 11))
        assert sim.stats.total == 5
        assert sim.stats.delivered_to(11) == 5
        assert sim.stats.delivery_ratio() == 1.0

    def test_log_records_packets_and_storage(self):
        topo = figure1_topology()
        sim = NetworkSimulator(topo, StaticController([]))
        walk(sim, http_request(100, 11))
        assert len(sim.log) == 1
        assert sim.log.storage_bytes() == LOG_ENTRY_BYTES


class TestPackets:
    def test_format_ip(self):
        assert format_ip(258) == "10.0.1.2"
        assert format_ip(None) == "?"
