"""Scenario Q1: copy-and-paste error (Section 5.3, Table 2).

The operator added a backup web server H2 behind switch S3 and copied the
forwarding rule r5 (which serves S2) into a new rule r7, changing the output
port but forgetting to change the switch-id predicate ``Swi == 2``.  As a
result no flow entry for HTTP traffic is ever installed on S3 and H2 receives
no requests, while the rest of the network keeps working.

The topology extends the paper's Figure 1 with a fourth switch S4 that has
its own local web server.  S4 is what makes the overly general repair
candidates (``Swi != 2``, ``Swi >= 2``, ``Swi > 2``, deleting the predicate)
fail backtesting: they also install the wrong entry on S4 and misroute its
local HTTP traffic, exactly like the rejected candidates C-F of Table 2.
"""

from __future__ import annotations

from typing import List, Tuple

from ..controllers.ndlog_controller import FieldMapping
from ..ndlog.tuples import NDTuple
from ..sdn.packets import DNS_PORT, HTTP_PORT, Packet, PROTO_TCP, PROTO_UDP
from ..sdn.topology import Topology
from .base import NDlogScenario, Symptom


#: Field mapping: packets expose (source IP, destination port); flow entries
#: match on both and carry an output port.
Q1_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_port"),
    flow_entry_layout=("src_ip", "dst_port", "out_port"))

#: The virtual IP clients send web requests to (the load-balanced service).
WEB_VIP = 99
H1, H2, DNS_SERVER, H3, H4 = 11, 12, 13, 14, 15

Q1_PROGRAM = """
// Ingress switch S1: load-balance web traffic, forward DNS towards S3.
r1 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), WebLoadBalancer(@C,Sip,Prt), Swi == 1, Hdr == 80.
r2 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 1, Hdr == 53, Prt := 2.
// S2 hosts the primary web server H1 and relays DNS towards S3.
r5 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 2, Hdr == 80, Prt := 1.
r6 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 2, Hdr == 53, Prt := 2.
// r7 was copied from r5 for the new backup server on S3, but the switch-id
// predicate was not updated: the bug of Figure 2.
r7 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 2, Hdr == 80, Prt := 2.
// S3 hosts the DNS server.
r8 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 3, Hdr == 53, Prt := 1.
// S4 is an unrelated edge switch with its own local web server and uplink.
r9 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 4, Hdr == 80, Prt := 1.
r10 FlowTable(@Swi,Sip,Hdr,Prt) :- PacketIn(@C,Swi,Sip,Hdr), Swi == 4, Hdr == 53, Prt := 3.
"""


def q1_topology(s1_clients: int = 12, s4_clients: int = 4) -> Topology:
    """Figure 1 extended with an unrelated edge switch S4."""
    topo = Topology(name="q1")
    for switch_id, name in ((1, "S1"), (2, "S2"), (3, "S3"), (4, "S4")):
        topo.add_switch(switch_id, name)
    topo.add_link(1, 1, 2, 3)      # S1 port 1 -> S2
    topo.add_link(1, 2, 3, 3)      # S1 port 2 -> S3
    topo.add_link(2, 2, 3, 4)      # S2 port 2 -> S3
    topo.add_link(4, 3, 1, 5)      # S4 port 3 -> S1 (uplink for DNS)
    topo.add_host(2, 1, role="web", name="H1", host_id=H1)
    topo.add_host(3, 2, role="web", name="H2", host_id=H2)
    topo.add_host(3, 1, role="dns", name="DNS", host_id=DNS_SERVER)
    topo.add_host(4, 1, role="web", name="H3", host_id=H3)
    topo.add_host(4, 2, role="client", name="H4", host_id=H4)
    for index in range(s1_clients):
        topo.add_host(1, 10 + index, role="client", host_id=101 + index)
    for index in range(s4_clients):
        topo.add_host(4, 10 + index, role="client", host_id=201 + index)
    return topo


def q1_static_tuples(s1_clients: int = 12, offloaded_clients: int = 2) -> List[NDTuple]:
    """Load-balancer configuration.

    The first ``offloaded_clients`` client IPs are offloaded to the new backup
    server H2 (port 2 towards S3); everyone else keeps using the primary H1
    (port 1 towards S2).  Keeping the offloaded share small mirrors the
    paper's observation that the repaired problem affects only a small
    fraction of the traffic.
    """
    tuples = []
    for index in range(s1_clients):
        ip = 101 + index
        port = 2 if index < offloaded_clients else 1
        tuples.append(NDTuple("WebLoadBalancer", ("C", ip, port)))
    return tuples


def q1_trace(topology: Topology, repetitions: int = 3) -> List[Tuple[int, Packet]]:
    """Deterministic campus-style trace: web plus DNS from both edges.

    One repetition is built and the trace is that list ``repetitions``
    times over: every repetition holds the same frozen ``(switch,
    Packet)`` values, so repetition *k* shares repetition 1's objects.
    """
    one: List[Tuple[int, Packet]] = []
    s1_clients = sorted((h for h in topology.hosts.values()
                         if h.switch_id == 1 and h.role == "client"),
                        key=lambda h: h.host_id)
    s4_clients = sorted((h for h in topology.hosts.values()
                         if h.switch_id == 4 and h.role == "client"),
                        key=lambda h: h.host_id)
    for client in s1_clients:
        for sequence in range(3):
            one.append((1, Packet(src_ip=client.ip, dst_ip=WEB_VIP,
                                  src_port=40000 + sequence,
                                  dst_port=HTTP_PORT, proto=PROTO_TCP)))
        one.append((1, Packet(src_ip=client.ip, dst_ip=DNS_SERVER,
                              src_port=52000, dst_port=DNS_PORT,
                              proto=PROTO_UDP)))
    for client in s4_clients:
        for sequence in range(5):
            one.append((4, Packet(src_ip=client.ip, dst_ip=H3,
                                  src_port=41000 + sequence,
                                  dst_port=HTTP_PORT, proto=PROTO_TCP)))
        one.append((4, Packet(src_ip=client.ip, dst_ip=DNS_SERVER,
                              src_port=53000, dst_port=DNS_PORT,
                              proto=PROTO_UDP)))
    return one * repetitions


#: The closed range of each size parameter of :func:`build_q1`
#: (``check_spec``): S1's client ids (101 on) keep the two offloaded clients
#: and stay below S4's (201 on).
SIZE_RANGES = {"s1_clients": (2, 100), "s4_clients": (0, 100),
               "repetitions": (1, 50)}


def build_q1(s1_clients: int = 12, s4_clients: int = 4,
             repetitions: int = 3) -> NDlogScenario:
    """Build the Q1 scenario ("H2 is not receiving HTTP requests")."""
    symptom = Symptom(
        description="H2 (backup web server on S3) is not receiving HTTP requests",
        table="FlowTable",
        constraints={0: 3, 2: HTTP_PORT, 3: 2},
        node=3)
    return NDlogScenario(
        name="Q1",
        description="Copy-and-paste error in the load-balancer program",
        program_source=Q1_PROGRAM,
        mapping=Q1_MAPPING,
        topology_factory=lambda: q1_topology(s1_clients, s4_clients),
        trace_factory=lambda topo: q1_trace(topo, repetitions),
        symptom=symptom,
        static_tuples=q1_static_tuples(s1_clients),
        target_host=H2,
        reference_repair="change Swi == 2 to Swi == 3 in rule r7",
        ks_threshold=0.12)
