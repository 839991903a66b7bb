"""A scenario's trace is one repetition, repeated.

Each of the five trace builders builds one repetition of its traffic and
returns that list ``repetitions`` times over, so repetition *k* holds the
very ``(switch, Packet)`` pairs of repetition 1 — frozen values that
nothing keys by identity.  The builders below are the per-repetition loops
they replaced, kept verbatim as oracles: the traces must be equal value
for value (header values included) at the defaults and at the sizes the
benchmark's ``trace_heavy`` workload draws.
"""

from typing import List, Tuple

import pytest

from repro.scenarios import build_scenario
from repro.scenarios.q1_copy_paste import WEB_VIP, H3, q1_topology, q1_trace
from repro.scenarios.q1_copy_paste import DNS_SERVER as Q1_DNS
from repro.scenarios.q2_forwarding import (AFFECTED_CLIENT, SCANNER,
                                           q2_topology, q2_trace)
from repro.scenarios.q2_forwarding import DNS_SERVER as Q2_DNS
from repro.scenarios.q2_forwarding import WEB_SERVER as Q2_WEB
from repro.scenarios.q3_policy_update import (BLOCKED_SOURCE,
                                              OFFLOADED_CLIENT, q3_topology,
                                              q3_trace)
from repro.scenarios.q3_policy_update import DNS_SERVER as Q3_DNS
from repro.scenarios.q3_policy_update import WEB_SERVER as Q3_WEB
from repro.scenarios.q4_forgotten_packets import q4_topology, q4_trace
from repro.scenarios.q4_forgotten_packets import DNS_SERVER as Q4_DNS
from repro.scenarios.q4_forgotten_packets import WEB_SERVER as Q4_WEB
from repro.scenarios.q5_mac_learning import SWITCH, q5_topology, q5_trace
from repro.sdn.packets import DNS_PORT, HTTP_PORT, Packet, PROTO_TCP, PROTO_UDP


# ---------------------------------------------------------------------------
# The per-repetition loops the builders replaced (oracles; do not edit)
# ---------------------------------------------------------------------------


def old_q1_trace(topology, repetitions=3) -> List[Tuple[int, Packet]]:
    trace: List[Tuple[int, Packet]] = []
    s1_clients = [h for h in topology.hosts.values()
                  if h.switch_id == 1 and h.role == "client"]
    s4_clients = [h for h in topology.hosts.values()
                  if h.switch_id == 4 and h.role == "client"]
    for _ in range(repetitions):
        for client in sorted(s1_clients, key=lambda h: h.host_id):
            for sequence in range(3):
                trace.append((1, Packet(src_ip=client.ip, dst_ip=WEB_VIP,
                                        src_port=40000 + sequence,
                                        dst_port=HTTP_PORT, proto=PROTO_TCP)))
            trace.append((1, Packet(src_ip=client.ip, dst_ip=Q1_DNS,
                                    src_port=52000, dst_port=DNS_PORT,
                                    proto=PROTO_UDP)))
        for client in sorted(s4_clients, key=lambda h: h.host_id):
            for sequence in range(5):
                trace.append((4, Packet(src_ip=client.ip, dst_ip=H3,
                                        src_port=41000 + sequence,
                                        dst_port=HTTP_PORT, proto=PROTO_TCP)))
            trace.append((4, Packet(src_ip=client.ip, dst_ip=Q1_DNS,
                                    src_port=53000, dst_port=DNS_PORT,
                                    proto=PROTO_UDP)))
    return trace


def old_q2_trace(topology, repetitions=2) -> List[Tuple[int, Packet]]:
    trace: List[Tuple[int, Packet]] = []
    for _ in range(repetitions):
        for ip in range(1, 6):
            for sequence in range(6):
                trace.append((6, Packet(src_ip=ip, dst_ip=Q2_WEB,
                                        src_port=41000 + sequence,
                                        dst_port=HTTP_PORT, proto=PROTO_TCP)))
            for sequence in range(4):
                trace.append((6, Packet(src_ip=ip, dst_ip=Q2_DNS,
                                        src_port=52000 + sequence,
                                        dst_port=DNS_PORT, proto=PROTO_UDP)))
        for sequence in range(3):
            trace.append((6, Packet(src_ip=AFFECTED_CLIENT, dst_ip=Q2_DNS,
                                    src_port=52100 + sequence,
                                    dst_port=DNS_PORT, proto=PROTO_UDP)))
        for ip in (7, 8):
            for sequence in range(5):
                trace.append((6, Packet(src_ip=ip, dst_ip=Q2_DNS,
                                        src_port=52200 + sequence,
                                        dst_port=DNS_PORT, proto=PROTO_UDP)))
        for sequence in range(20):
            trace.append((6, Packet(src_ip=SCANNER, dst_ip=Q2_DNS,
                                    src_port=53000 + sequence,
                                    dst_port=DNS_PORT, proto=PROTO_UDP)))
    return trace


def old_q3_trace(topology, repetitions=2) -> List[Tuple[int, Packet]]:
    trace: List[Tuple[int, Packet]] = []
    for _ in range(repetitions):
        for ip in range(4, 10):
            for sequence in range(6):
                trace.append((7, Packet(src_ip=ip, dst_ip=Q3_WEB,
                                        src_port=41000 + sequence,
                                        dst_port=HTTP_PORT, proto=PROTO_TCP)))
            trace.append((7, Packet(src_ip=ip, dst_ip=Q3_DNS,
                                    src_port=52000, dst_port=DNS_PORT,
                                    proto=PROTO_UDP)))
        for sequence in range(4):
            trace.append((7, Packet(src_ip=OFFLOADED_CLIENT, dst_ip=Q3_WEB,
                                    src_port=42000 + sequence,
                                    dst_port=HTTP_PORT, proto=PROTO_TCP)))
        for sequence in range(25):
            trace.append((7, Packet(src_ip=BLOCKED_SOURCE, dst_ip=Q3_WEB,
                                    src_port=43000 + sequence,
                                    dst_port=HTTP_PORT, proto=PROTO_TCP)))
    return trace


def old_q4_trace(topology, packets_per_flow=6,
                 repetitions=2) -> List[Tuple[int, Packet]]:
    trace: List[Tuple[int, Packet]] = []
    clients = sorted((h for h in topology.hosts.values() if h.role == "client"),
                     key=lambda h: h.host_id)
    for _ in range(repetitions):
        for client in clients:
            for sequence in range(packets_per_flow):
                trace.append((8, Packet(src_ip=client.ip, dst_ip=Q4_WEB,
                                        src_port=41000 + sequence,
                                        dst_port=HTTP_PORT, proto=PROTO_TCP)))
            for sequence in range(2):
                trace.append((8, Packet(src_ip=client.ip, dst_ip=Q4_DNS,
                                        src_port=52000 + sequence,
                                        dst_port=DNS_PORT, proto=PROTO_UDP)))
    return trace


def old_q5_trace(topology, repetitions=3) -> List[Tuple[int, Packet]]:
    trace: List[Tuple[int, Packet]] = []
    hosts = sorted(topology.hosts.values(), key=lambda h: h.host_id)
    for _ in range(repetitions):
        for src in hosts:
            for dst in hosts:
                if src.host_id == dst.host_id:
                    continue
                trace.append((SWITCH, Packet(
                    src_ip=src.ip, dst_ip=dst.ip, src_port=40000,
                    dst_port=HTTP_PORT, proto=PROTO_TCP,
                    src_mac=src.mac, dst_mac=dst.mac)))
    return trace


# ---------------------------------------------------------------------------
# The cases: (name, topology, new builder, old builder, keyword arguments)
# ---------------------------------------------------------------------------

#: ``trace_heavy``'s sizes: Q1 with (s1, s4) clients drawn from these, at
#: ten repetitions (294 packets per repetition).
TRACE_HEAVY_SIZES = ((48, 16), (45, 18), (51, 14))

CASES = (
    [("Q1", lambda: q1_topology(), q1_trace, old_q1_trace, {}),
     ("Q2", q2_topology, q2_trace, old_q2_trace, {}),
     ("Q3", q3_topology, q3_trace, old_q3_trace, {}),
     ("Q4", lambda: q4_topology(), q4_trace, old_q4_trace, {}),
     ("Q5", lambda: q5_topology(), q5_trace, old_q5_trace, {}),
     ("Q1-once", lambda: q1_topology(), q1_trace, old_q1_trace,
      {"repetitions": 1}),
     ("Q4-flows", lambda: q4_topology(3), q4_trace, old_q4_trace,
      {"packets_per_flow": 2, "repetitions": 5}),
     ("Q5-hosts", lambda: q5_topology(6), q5_trace, old_q5_trace,
      {"repetitions": 4})]
    + [(f"trace_heavy-{s1}x{s4}",
        (lambda s1=s1, s4=s4: q1_topology(s1, s4)), q1_trace, old_q1_trace,
        {"repetitions": 10})
       for s1, s4 in TRACE_HEAVY_SIZES])


@pytest.mark.parametrize("name, topology, build, oracle, kwargs", CASES,
                         ids=[case[0] for case in CASES])
def test_a_trace_equals_its_old_loop_value_for_value(name, topology, build,
                                                     oracle, kwargs):
    trace = build(topology(), **kwargs)
    expected = oracle(topology(), **kwargs)
    assert trace == expected
    assert [(switch, packet.header_values, packet.size)
            for switch, packet in trace] == \
        [(switch, packet.header_values, packet.size)
         for switch, packet in expected]


@pytest.mark.parametrize("name, topology, build, oracle, kwargs", CASES,
                         ids=[case[0] for case in CASES])
def test_repetition_k_reuses_repetition_ones_objects(name, topology, build,
                                                     oracle, kwargs):
    trace = build(topology(), **kwargs)
    repetitions = kwargs.get("repetitions",
                             build.__defaults__[-1])
    assert len(trace) % repetitions == 0
    period = len(trace) // repetitions
    assert period > 0
    first = trace[:period]
    for k in range(1, repetitions):
        repetition = trace[k * period:(k + 1) * period]
        assert all(pair is original
                   for pair, original in zip(repetition, first))
    # One repetition builds each of its packets once.
    assert len({id(packet) for _switch, packet in first}) == period


def test_trace_heavy_builds_one_repetitions_packets():
    # 48 S1 clients x 4 packets + 17 S4 clients (H4 among them) x 6.
    trace = q1_trace(q1_topology(48, 16), repetitions=10)
    assert len(trace) == 2940
    assert len({id(packet) for _switch, packet in trace}) == 294


@pytest.mark.parametrize("name", ["Q1", "Q5"])
def test_a_scenario_stores_its_trace_once_and_hands_it_out(name):
    # trace() is called by every replay and every verdict of a session:
    # it returns the one tuple it built, never a copy.
    scenario = build_scenario(name)
    trace = scenario.trace()
    assert isinstance(trace, tuple)
    assert scenario.trace() is trace
