"""Scenario Q3: uncoordinated policy update (Section 5.3, Table 6b).

A load-balancing app started offloading some clients (among them H1, source
IP 3) onto a route protected by a firewall whose white-list was never
updated: the firewall rule on switch S7 only admits web traffic with
``Sip > 3``, so the offloaded requests are silently dropped.  A known-bad
source (IP 1) must remain blocked, which is what rejects the overly
permissive repairs (``Sip > 0``, deleting the predicate).
"""

from __future__ import annotations

from typing import List, Tuple

from ..controllers.ndlog_controller import FieldMapping
from ..sdn.packets import DNS_PORT, HTTP_PORT, Packet, PROTO_TCP, PROTO_UDP
from ..sdn.topology import Topology
from .base import NDlogScenario, Symptom


Q3_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_port"),
    flow_entry_layout=("src_ip", "dst_port", "out_port"))

WEB_SERVER = 20        # "H20"
DNS_SERVER = 21
OFFLOADED_CLIENT = 3   # "H1": recently offloaded onto this route
BLOCKED_SOURCE = 1     # must remain blocked by the firewall

Q3_PROGRAM = """
// Firewall + forwarding on switch S7: web traffic is admitted only from
// white-listed sources (the stale policy: Sip > 3), DNS is unrestricted.
q3fw FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 7, Hdr == 80, Sip > 3, Prt := 1.
q3dns FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 7, Hdr == 53, Prt := 2.
"""


def q3_topology() -> Topology:
    topo = Topology(name="q3")
    topo.add_switch(7, "S7")
    topo.add_host(7, 1, role="web", name="H20", host_id=WEB_SERVER)
    topo.add_host(7, 2, role="dns", name="DNS", host_id=DNS_SERVER)
    # Established clients (IPs 4-9), the offloaded client (IP 3) and the
    # blocked source (IP 1).
    for ip in range(3, 10):
        topo.add_host(7, 10 + ip, role="client", host_id=ip)
    topo.add_host(7, 25, role="client", name="blocked", host_id=BLOCKED_SOURCE)
    return topo


def q3_trace(topology: Topology, repetitions: int = 2) -> List[Tuple[int, Packet]]:
    """One repetition of the clients' traffic, ``repetitions`` times over
    (repetition *k* shares repetition 1's frozen packets)."""
    one: List[Tuple[int, Packet]] = []
    for ip in range(4, 10):            # white-listed clients: heavy traffic
        for sequence in range(6):
            one.append((7, Packet(src_ip=ip, dst_ip=WEB_SERVER,
                                  src_port=41000 + sequence,
                                  dst_port=HTTP_PORT, proto=PROTO_TCP)))
        one.append((7, Packet(src_ip=ip, dst_ip=DNS_SERVER,
                              src_port=52000, dst_port=DNS_PORT,
                              proto=PROTO_UDP)))
    for sequence in range(4):          # the offloaded client: small share
        one.append((7, Packet(src_ip=OFFLOADED_CLIENT, dst_ip=WEB_SERVER,
                              src_port=42000 + sequence,
                              dst_port=HTTP_PORT, proto=PROTO_TCP)))
    for sequence in range(25):         # the blocked source: must stay blocked
        one.append((7, Packet(src_ip=BLOCKED_SOURCE, dst_ip=WEB_SERVER,
                              src_port=43000 + sequence,
                              dst_port=HTTP_PORT, proto=PROTO_TCP)))
    return one * repetitions


def _offloaded_client_reaches_server(outcomes) -> bool:
    return any(destination == WEB_SERVER and packet.src_ip == OFFLOADED_CLIENT
               for packet, destination in outcomes)


#: The closed range of each size parameter of :func:`build_q3`.
SIZE_RANGES = {"repetitions": (1, 50)}


def build_q3(repetitions: int = 2) -> NDlogScenario:
    """Build the Q3 scenario ("H20 is not receiving HTTP requests from H1")."""
    symptom = Symptom(
        description="H20 is not receiving HTTP requests from H1 (source IP 3)",
        table="FlowTable",
        constraints={0: 7, 1: OFFLOADED_CLIENT, 2: HTTP_PORT, 3: 1},
        node=7)
    return NDlogScenario(
        name="Q3",
        description="Stale firewall white-list after an uncoordinated policy update",
        program_source=Q3_PROGRAM,
        mapping=Q3_MAPPING,
        topology_factory=q3_topology,
        trace_factory=lambda topo: q3_trace(topo, repetitions),
        symptom=symptom,
        effective_predicate=_offloaded_client_reaches_server,
        target_host=WEB_SERVER,
        reference_repair="change Sip > 3 to Sip > 2 in rule q3fw",
        ks_threshold=0.06)
