"""Scenario Q2: forwarding error (Section 5.3, Table 6a).

A DNS server (H17) cannot receive queries from one of the clients (H1,
source IP 6) because the forwarding rule on the aggregation switch S5 was
written with a too-restrictive source-IP selection (``Sip < 6``).  Other
clients work, and a port scanner (source IP 50) is *supposed* to remain
blocked, which is what makes the overly general repairs (``Sip < 50``,
deleting the predicate, ...) fail backtesting.
"""

from __future__ import annotations

from typing import List, Tuple

from ..controllers.ndlog_controller import FieldMapping
from ..sdn.packets import DNS_PORT, HTTP_PORT, Packet, PROTO_TCP, PROTO_UDP
from ..sdn.topology import Topology
from .base import NDlogScenario, Symptom


Q2_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_port"),
    flow_entry_layout=("src_ip", "dst_port", "out_port"))

DNS_SERVER = 17      # "H17" of the paper's query
WEB_SERVER = 16
AFFECTED_CLIENT = 6  # "H1": its DNS queries are dropped
SCANNER = 50         # must remain blocked

Q2_PROGRAM = """
// Access switch S6 forwards everything to the aggregation switch S5.
q2a FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 6, Hdr == 53, Prt := 1.
q2b FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 6, Hdr == 80, Prt := 1.
// Aggregation switch S5: deliver DNS to H17 and web traffic to H16, but only
// for known clients.  The bug: the operator wrote Sip < 6 instead of Sip < 7,
// cutting off the client with source IP 6.
q2c FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 5, Hdr == 53, Sip < 6, Prt := 17.
q2d FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 5, Hdr == 80, Sip < 6, Prt := 16.
"""


def q2_topology() -> Topology:
    topo = Topology(name="q2")
    topo.add_switch(5, "S5")
    topo.add_switch(6, "S6")
    topo.add_link(6, 1, 5, 3)          # S6 port 1 -> S5
    topo.add_host(5, 17, role="dns", name="H17", host_id=DNS_SERVER)
    topo.add_host(5, 16, role="web", name="H16", host_id=WEB_SERVER)
    # Legitimate clients (IPs 1-6) plus two not-yet-whitelisted ones (7, 8)
    # and the scanner that must stay blocked.
    for ip in range(1, 9):
        topo.add_host(6, 10 + ip, role="client", host_id=ip)
    topo.add_host(6, 30, role="client", name="scanner", host_id=SCANNER)
    return topo


def q2_trace(topology: Topology, repetitions: int = 2) -> List[Tuple[int, Packet]]:
    """One repetition of the clients' traffic, ``repetitions`` times over
    (repetition *k* shares repetition 1's frozen packets)."""
    one: List[Tuple[int, Packet]] = []
    for ip in range(1, 6):              # healthy clients: heavy traffic
        for sequence in range(6):
            one.append((6, Packet(src_ip=ip, dst_ip=WEB_SERVER,
                                  src_port=41000 + sequence,
                                  dst_port=HTTP_PORT, proto=PROTO_TCP)))
        for sequence in range(4):
            one.append((6, Packet(src_ip=ip, dst_ip=DNS_SERVER,
                                  src_port=52000 + sequence,
                                  dst_port=DNS_PORT, proto=PROTO_UDP)))
    for sequence in range(3):           # the affected client: a small share
        one.append((6, Packet(src_ip=AFFECTED_CLIENT, dst_ip=DNS_SERVER,
                              src_port=52100 + sequence,
                              dst_port=DNS_PORT, proto=PROTO_UDP)))
    for ip in (7, 8):                   # not-yet-whitelisted clients
        for sequence in range(5):
            one.append((6, Packet(src_ip=ip, dst_ip=DNS_SERVER,
                                  src_port=52200 + sequence,
                                  dst_port=DNS_PORT, proto=PROTO_UDP)))
    for sequence in range(20):          # the scanner: must stay blocked
        one.append((6, Packet(src_ip=SCANNER, dst_ip=DNS_SERVER,
                              src_port=53000 + sequence,
                              dst_port=DNS_PORT, proto=PROTO_UDP)))
    return one * repetitions


def _dns_from_affected_client_delivered(outcomes) -> bool:
    return any(destination == DNS_SERVER and packet.src_ip == AFFECTED_CLIENT
               for packet, destination in outcomes)


#: The closed range of each size parameter of :func:`build_q2`.
SIZE_RANGES = {"repetitions": (1, 50)}


def build_q2(repetitions: int = 2) -> NDlogScenario:
    """Build the Q2 scenario ("H17 is not receiving DNS queries from H1")."""
    symptom = Symptom(
        description="H17 is not receiving DNS queries from H1 (source IP 6)",
        table="FlowTable",
        constraints={0: 5, 1: AFFECTED_CLIENT, 2: DNS_PORT, 3: 17},
        node=5)
    return NDlogScenario(
        name="Q2",
        description="Forwarding rule with a too-restrictive source-IP selection",
        program_source=Q2_PROGRAM,
        mapping=Q2_MAPPING,
        topology_factory=q2_topology,
        trace_factory=lambda topo: q2_trace(topo, repetitions),
        symptom=symptom,
        effective_predicate=_dns_from_affected_client_delivered,
        target_host=DNS_SERVER,
        reference_repair="change Sip < 6 to Sip < 7 in rule q2c",
        ks_threshold=0.06)
