"""Workload generation.

The paper's evaluation replays two campus traffic traces (Benson et al.,
IMC 2010) on 1-16 hosts and generates a mix of ICMP ping and HTTP web
traffic on the remaining hosts.  Those traces are not redistributable, so
this module generates a synthetic campus-like workload with the properties
the experiments rely on:

* a protocol mix dominated by web traffic, with a DNS and ICMP component;
* heavy-tailed flow sizes (a few large flows, many small ones);
* many distinct client source addresses spread across edge networks;
* deterministic output for a given seed, so backtests are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .packets import DNS_PORT, HTTP_PORT, Packet, PROTO_ICMP, PROTO_TCP, PROTO_UDP
from .topology import Host, Topology


@dataclass
class TrafficProfile:
    """Mix parameters for the synthetic campus workload."""

    web_fraction: float = 0.70
    dns_fraction: float = 0.15
    icmp_fraction: float = 0.15
    #: Pareto shape for flow sizes (packets per flow); smaller = heavier tail.
    flow_size_alpha: float = 1.3
    max_flow_size: int = 40
    ephemeral_port_range: Tuple[int, int] = (32768, 60999)

    def normalised(self) -> "TrafficProfile":
        total = self.web_fraction + self.dns_fraction + self.icmp_fraction
        if total <= 0:
            raise ValueError("traffic profile fractions must sum to a positive value")
        return TrafficProfile(
            web_fraction=self.web_fraction / total,
            dns_fraction=self.dns_fraction / total,
            icmp_fraction=self.icmp_fraction / total,
            flow_size_alpha=self.flow_size_alpha,
            max_flow_size=self.max_flow_size,
            ephemeral_port_range=self.ephemeral_port_range,
        )


class TrafficGenerator:
    """Generates deterministic synthetic traces over a topology."""

    def __init__(self, topology: Topology, seed: int = 7,
                 profile: Optional[TrafficProfile] = None):
        self.topology = topology
        self.random = random.Random(seed)
        self.profile = (profile or TrafficProfile()).normalised()

    # ------------------------------------------------------------------
    # Host selection helpers
    # ------------------------------------------------------------------

    def _clients(self) -> List[Host]:
        clients = self.topology.hosts_with_role("client")
        return clients or list(self.topology.hosts.values())

    def _servers(self, role: str) -> List[Host]:
        servers = self.topology.hosts_with_role(role)
        if servers:
            return servers
        return self._clients()[:1]

    def _ingress_switch(self, client: Host) -> int:
        return client.switch_id

    def _flow_size(self) -> int:
        size = int(self.random.paretovariate(self.profile.flow_size_alpha))
        return max(1, min(size, self.profile.max_flow_size))

    def _ephemeral_port(self) -> int:
        low, high = self.profile.ephemeral_port_range
        return self.random.randint(low, high)

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------

    def generate(self, packet_count: int) -> List[Tuple[int, Packet]]:
        """Generate a trace of (ingress switch, packet) pairs."""
        trace: List[Tuple[int, Packet]] = []
        clients = self._clients()
        web_servers = self._servers("web")
        dns_servers = self._servers("dns")
        while len(trace) < packet_count:
            kind = self.random.random()
            client = self.random.choice(clients)
            ingress = self._ingress_switch(client)
            if kind < self.profile.web_fraction:
                server = self.random.choice(web_servers)
                src_port = self._ephemeral_port()
                for _ in range(self._flow_size()):
                    if len(trace) >= packet_count:
                        break
                    trace.append((ingress, Packet(
                        src_ip=client.ip, dst_ip=server.ip, src_port=src_port,
                        dst_port=HTTP_PORT, proto=PROTO_TCP,
                        src_mac=client.mac, dst_mac=server.mac)))
            elif kind < self.profile.web_fraction + self.profile.dns_fraction:
                server = self.random.choice(dns_servers)
                trace.append((ingress, Packet(
                    src_ip=client.ip, dst_ip=server.ip,
                    src_port=self._ephemeral_port(), dst_port=DNS_PORT,
                    proto=PROTO_UDP, src_mac=client.mac, dst_mac=server.mac)))
            else:
                other = self.random.choice(clients + web_servers)
                trace.append((ingress, Packet(
                    src_ip=client.ip, dst_ip=other.ip, proto=PROTO_ICMP,
                    src_mac=client.mac, dst_mac=other.mac)))
        return trace


def replayed_trace(trace: Sequence[Tuple[int, Packet]],
                   repetitions: int) -> List[Tuple[int, Packet]]:
    """Concatenate a trace with itself ``repetitions`` times.

    Mirrors the paper's setup where a captured trace is "replayed
    continuously during the course of the experiments".
    """
    out: List[Tuple[int, Packet]] = []
    for _ in range(max(1, repetitions)):
        out.extend(trace)
    return out


def protocol_mix(trace: Iterable[Tuple[int, Packet]]) -> Dict[str, int]:
    """Histogram of protocols in a trace (used by tests and benchmarks)."""
    counts: Dict[str, int] = {"web": 0, "dns": 0, "icmp": 0, "other": 0}
    for _, packet in trace:
        if packet.proto == PROTO_ICMP:
            counts["icmp"] += 1
        elif packet.dst_port == HTTP_PORT:
            counts["web"] += 1
        elif packet.dst_port == DNS_PORT:
            counts["dns"] += 1
        else:
            counts["other"] += 1
    return counts
