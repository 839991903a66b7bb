"""Scenario Q5: incorrect MAC learning (Section 5.3, Table 6d).

The learning app on switch S9 is supposed to record, for every packet, that
the packet's *source* host is reachable through its ingress port; a second
rule then installs flow entries towards hosts whose location has been
learned.  The bug: the learning rule stores a wildcard instead of the source
address, so the controller never learns where any host — in particular H2 —
actually lives, and traffic towards it is dropped.

The repair the paper highlights (Table 6d, candidates A/G) changes the
wildcard assignment back to the source field; the "manual" alternative (I)
inserts the missing learning-table entry directly.

Note on backtesting: unlike Q1-Q4, this bug affects most of the recorded
traffic (nothing is learned at all), so the KS gate is necessarily loose for
this scenario; the discriminating signal is the effectiveness predicate
(H2 actually receives traffic) plus the KS ranking.
"""

from __future__ import annotations

from typing import List, Tuple

from ..controllers.ndlog_controller import FieldMapping
from ..ndlog.tuples import TableSchema
from ..sdn.packets import HTTP_PORT, Packet, PROTO_TCP
from ..sdn.topology import Topology
from .base import NDlogScenario, Symptom


Q5_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_ip", "in_port"),
    flow_entry_layout=("src_ip", "dst_ip", "out_port"))

H2 = 21              # the host whose address is never learned
H2_PORT = 5          # the switch port H2 is attached to
SWITCH = 9

Q5_PROGRAM = """
// f1 learns host locations: it should record the packet's source address at
// the ingress port, but the buggy version stores a wildcard instead.
f1 Learned(@C,Swi,Hip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), Hip := *, Prt := Ipt.
// f2 installs a flow entry towards any destination whose location is known.
f2 FlowTable(@Swi,SipP,Dip,Prt) :- PacketIn(@C,Swi,Sip,Dip,Ipt), Learned(@C,Swi,Dip,Prt), SipP := *.
"""

Q5_EXTRA_SCHEMAS = (TableSchema("Learned", ("C", "Swi", "Hip", "Prt"),
                                primary_key=("C", "Swi", "Hip")),)


def q5_topology(extra_hosts: int = 3) -> Topology:
    topo = Topology(name="q5")
    topo.add_switch(SWITCH, "S9")
    topo.add_host(SWITCH, H2_PORT, role="web", name="H2", host_id=H2)
    for index in range(extra_hosts):
        topo.add_host(SWITCH, 6 + index, role="client", host_id=22 + index)
    return topo


def q5_trace(topology: Topology, repetitions: int = 3) -> List[Tuple[int, Packet]]:
    """Every host talks to every other host; H2 both sends and receives.

    One repetition is built and the trace is that list ``repetitions``
    times over (repetition *k* shares repetition 1's frozen packets).
    """
    one: List[Tuple[int, Packet]] = []
    hosts = sorted(topology.hosts.values(), key=lambda h: h.host_id)
    for src in hosts:
        for dst in hosts:
            if src.host_id == dst.host_id:
                continue
            one.append((SWITCH, Packet(
                src_ip=src.ip, dst_ip=dst.ip, src_port=40000,
                dst_port=HTTP_PORT, proto=PROTO_TCP,
                src_mac=src.mac, dst_mac=dst.mac)))
    return one * repetitions


#: The closed range of each size parameter of :func:`build_q5`: every host
#: talks to every other, so the trace grows with the square of the hosts.
SIZE_RANGES = {"extra_hosts": (1, 30), "repetitions": (1, 50)}


def build_q5(extra_hosts: int = 3, repetitions: int = 3) -> NDlogScenario:
    """Build the Q5 scenario ("H2's address is not learned by the controller")."""
    symptom = Symptom(
        description="H2's address is never learned by the controller",
        table="Learned",
        constraints={1: SWITCH, 2: H2, 3: H2_PORT},
        node="C")
    return NDlogScenario(
        name="Q5",
        description="MAC-learning app learns a wildcard instead of the source host",
        program_source=Q5_PROGRAM,
        mapping=Q5_MAPPING,
        topology_factory=lambda: q5_topology(extra_hosts),
        trace_factory=lambda topo: q5_trace(topo, repetitions),
        symptom=symptom,
        static_tuples=(),
        extra_schemas=Q5_EXTRA_SCHEMAS,
        target_host=H2,
        reference_repair="change Hip := * to Hip := Sip in rule f1",
        ks_threshold=0.95)
