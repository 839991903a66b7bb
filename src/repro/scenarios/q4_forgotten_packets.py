"""Scenario Q4: forgotten packets (Section 5.3, Table 6c).

The controller app on switch S8 installs the right flow entries in response
to new flows, but it only sends ``PacketOut`` messages for DNS traffic — the
programmer forgot the packet-out for HTTP.  Because an OpenFlow switch
buffers the packet that caused the table miss, the *first* packet of every
HTTP flow is lost even though all subsequent packets match the new entry.

The repairs the paper finds for this scenario re-target or copy existing
rules so that their head becomes a ``PacketOut``; this is what the
retargeting tasks of the meta provenance explorer produce.
"""

from __future__ import annotations

from typing import List, Tuple

from ..controllers.ndlog_controller import FieldMapping
from ..sdn.network import DROPPED
from ..sdn.packets import DNS_PORT, HTTP_PORT, Packet, PROTO_TCP, PROTO_UDP
from ..sdn.topology import Topology
from .base import NDlogScenario, Symptom


Q4_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_port"),
    flow_entry_layout=("src_ip", "dst_port", "out_port"))

WEB_SERVER = 28        # "H20"
DNS_SERVER = 29
FIRST_CLIENT = 30      # "H2": the client whose first packet the query names

Q4_PROGRAM = """
// Reactive forwarding on switch S8: per-client flow entries for HTTP and DNS.
q4http FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 8, Hdr == 80, Prt := 1.
q4dns FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 8, Hdr == 53, Prt := 2.
// Packet-out for the buffered first packet: present for DNS, forgotten for HTTP.
q4po PacketOut(@Swi,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 8, Hdr == 53, Prt := 2.
"""


def q4_topology(clients: int = 8) -> Topology:
    topo = Topology(name="q4")
    topo.add_switch(8, "S8")
    topo.add_host(8, 1, role="web", name="H20", host_id=WEB_SERVER)
    topo.add_host(8, 2, role="dns", name="DNS", host_id=DNS_SERVER)
    topo.add_host(8, 10, role="client", name="H2", host_id=FIRST_CLIENT)
    for index in range(1, clients):
        topo.add_host(8, 10 + index, role="client", host_id=FIRST_CLIENT + index)
    return topo


def q4_trace(topology: Topology, packets_per_flow: int = 6,
             repetitions: int = 2) -> List[Tuple[int, Packet]]:
    """One repetition of every client's HTTP and DNS flows,
    ``repetitions`` times over (repetition *k* shares repetition 1's
    frozen packets)."""
    one: List[Tuple[int, Packet]] = []
    clients = sorted((h for h in topology.hosts.values() if h.role == "client"),
                     key=lambda h: h.host_id)
    for client in clients:
        for sequence in range(packets_per_flow):
            one.append((8, Packet(src_ip=client.ip, dst_ip=WEB_SERVER,
                                  src_port=41000 + sequence,
                                  dst_port=HTTP_PORT, proto=PROTO_TCP)))
        for sequence in range(2):
            one.append((8, Packet(src_ip=client.ip, dst_ip=DNS_SERVER,
                                  src_port=52000 + sequence,
                                  dst_port=DNS_PORT, proto=PROTO_UDP)))
    return one * repetitions


def _no_http_packet_lost(outcomes) -> bool:
    """Effective iff no HTTP packet (in particular the first one) is dropped."""
    return not any(packet.dst_port == HTTP_PORT and destination == DROPPED
                   for packet, destination in outcomes)


#: The closed range of each size parameter of :func:`build_q4`.
SIZE_RANGES = {"clients": (1, 100), "repetitions": (1, 50)}


def build_q4(clients: int = 8, repetitions: int = 2) -> NDlogScenario:
    """Build the Q4 scenario ("First HTTP packet from H2 to H20 is not received")."""
    symptom = Symptom(
        description="The first HTTP packet from H2 to H20 is not received",
        table="PacketOut",
        constraints={0: 8},
        node=8)
    return NDlogScenario(
        name="Q4",
        description="Controller forgets PacketOut for the buffered first packet",
        program_source=Q4_PROGRAM,
        mapping=Q4_MAPPING,
        topology_factory=lambda: q4_topology(clients),
        trace_factory=lambda topo: q4_trace(topo, repetitions=repetitions),
        symptom=symptom,
        effective_predicate=_no_http_packet_lost,
        target_host=WEB_SERVER,
        auto_packet_out=False,
        require_packet_out=True,
        reference_repair="copy rule q4http with a PacketOut head",
        ks_threshold=0.12)
