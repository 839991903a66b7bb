"""A packet arrives on the far end of the link it was sent over.

Two switches joined by two links (S1 p1 - S2 p1, S1 p2 - S2 p2): a packet S1
sends out of port 2 enters S2 on port 2, not on port 1, the first port of
S2 that leads back to S1.  The hop loop reads the arrival port from the
link record each switch keeps per port (``Switch.links``, written when
``Topology.add_link`` attaches the port), so both the forwarding decision
at S2 and the ``in_port`` of a PacketIn S2 raises see port 2.
``Switch.port_to`` keeps its routing meaning: the first port towards a
neighbour.
"""

from repro.sdn.controller import FlowMod, RecordingController, StaticController
from repro.sdn.network import NetworkSimulator
from repro.sdn.packets import Packet
from repro.sdn.switch import FlowEntry
from repro.sdn.topology import Topology


def parallel_links():
    topo = Topology(name="parallel")
    topo.add_link(1, 1, 2, 1)
    topo.add_link(1, 2, 2, 2)
    topo.add_host(1, 10, host_id=100)
    topo.add_host(2, 11, host_id=201)
    topo.add_host(2, 12, host_id=202)
    return topo


def simulator(flow_mods):
    recording = RecordingController(StaticController(flow_mods))
    return NetworkSimulator(parallel_links(), recording), recording


def test_a_packet_sent_on_the_second_link_enters_on_its_far_end():
    sim, recording = simulator([
        FlowMod(1, FlowEntry.create({}, out_port=2)),
        FlowMod(2, FlowEntry.create({"in_port": 1}, out_port=11)),
        FlowMod(2, FlowEntry.create({"in_port": 2}, out_port=12)),
    ])
    stats = sim.run_trace([(1, Packet(src_ip=100, dst_ip=201))])
    assert stats.destinations == [202]
    assert recording.packet_ins == []


def test_a_packet_in_raised_after_the_second_link_names_its_far_end():
    sim, recording = simulator([FlowMod(1, FlowEntry.create({}, out_port=2))])
    sim.run_trace([(1, Packet(src_ip=100, dst_ip=201))])
    (event,) = recording.packet_ins
    assert (event.switch_id, event.in_port) == (2, 2)


def test_port_to_still_names_the_first_port_towards_a_neighbour():
    topo = parallel_links()
    assert topo.switch(2).port_to("switch", 1) == 1
    assert topo.next_hop_port(1, 2) == 1
    assert topo.switch(1).links == {1: ("switch", 2, 1), 2: ("switch", 2, 2),
                                    10: ("host", 100, None)}
