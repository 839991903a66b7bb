"""Network topologies for the simulated SDN.

Two families of topologies are provided:

* :func:`figure1_topology` — the paper's running example (Figure 1): an
  ingress switch S1 load-balancing HTTP requests across a primary web server
  H1 (behind S2) and a backup H2 (behind S3), plus a DNS server.
* :func:`stanford_campus` — a Stanford-campus-like topology as used in the
  evaluation (Section 5.2): a core of Operational-Zone and backbone routers,
  augmented with edge networks of 1–15 hosts each.  The number of core
  routers, edge networks and hosts per edge are parameters, which is how the
  scalability experiment (Figure 9c) grows the network from 19 to 169
  switches.

Core switches are configured *proactively* (shortest-path routes to every
host are installed up front); edge switches are left to the reactive
controller application under test, matching the paper's setup.

Shortest paths come from a breadth-first search over the topology's own
adjacency (no graph library); which of several equal-length paths wins is
fixed by the order links were added, see :meth:`Topology._first_hop`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .packets import DNS_PORT, HTTP_PORT, Packet
from .switch import FlowEntry, Switch


@dataclass(frozen=True)
class Host:
    """An end host attached to a switch port."""

    host_id: int
    switch_id: int
    port: int
    role: str = "client"
    name: str = ""

    @property
    def ip(self) -> int:
        """Host ids double as IP addresses in the simulator."""
        return self.host_id

    @property
    def mac(self) -> int:
        return self.host_id


_Node = Tuple[str, int]  # ("switch", switch_id) or ("host", host_id)


class Topology:
    """Switches, hosts and links of a simulated network."""

    def __init__(self, name: str = "topology"):
        self.name = name
        self.switches: Dict[int, Switch] = {}
        self.hosts: Dict[int, Host] = {}
        # Undirected adjacency over ("switch", id) / ("host", id) nodes.
        # Dicts keep neighbours in insertion order, which is what makes
        # shortest-path tie-breaks (and so flow tables) deterministic.
        self._adjacency: Dict[_Node, Dict[_Node, None]] = {}
        self._next_host_id = itertools.count(1)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_switch(self, switch_id: int, name: str = "") -> Switch:
        if switch_id in self.switches:
            return self.switches[switch_id]
        switch = Switch(switch_id=switch_id, name=name or f"S{switch_id}")
        self.switches[switch_id] = switch
        self._adjacency[("switch", switch_id)] = {}
        return switch

    def add_host(self, switch_id: int, port: int, role: str = "client",
                 name: str = "", host_id: Optional[int] = None) -> Host:
        if host_id is None:
            host_id = next(self._next_host_id)
            while host_id in self.hosts:
                host_id = next(self._next_host_id)
        host = Host(host_id=host_id, switch_id=switch_id, port=port,
                    role=role, name=name)
        self.hosts[host_id] = host
        self.add_switch(switch_id)
        self.switches[switch_id].attach(port, "host", host_id)
        self._adjacency.setdefault(("host", host_id), {})
        self._connect(("switch", switch_id), ("host", host_id))
        return host

    def add_link(self, switch_a: int, port_a: int, switch_b: int, port_b: int):
        self.add_switch(switch_a)
        self.add_switch(switch_b)
        self.switches[switch_a].attach(port_a, "switch", switch_b, port_b)
        self.switches[switch_b].attach(port_b, "switch", switch_a, port_a)
        self._connect(("switch", switch_a), ("switch", switch_b))

    def _connect(self, a: _Node, b: _Node) -> None:
        self._adjacency[a][b] = None
        self._adjacency[b][a] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def switch(self, switch_id: int) -> Switch:
        return self.switches[switch_id]

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def hosts_with_role(self, role: str) -> List[Host]:
        return [h for h in self.hosts.values() if h.role == role]

    def switch_count(self) -> int:
        return len(self.switches)

    def host_count(self) -> int:
        return len(self.hosts)

    def next_hop_port(self, from_switch: int, to_switch: int) -> Optional[int]:
        """Port on ``from_switch`` on the shortest path towards ``to_switch``.

        ``None`` when the two are the same switch, when no path exists or
        when the path's next hop is a (multi-homed) host; ``KeyError`` for a
        switch id the topology does not have.
        """
        if from_switch == to_switch:
            return None
        for switch_id in (from_switch, to_switch):
            if switch_id not in self.switches:
                raise KeyError(switch_id)
        hop = self._first_hop(("switch", from_switch), ("switch", to_switch))
        if hop is None or hop[0] != "switch":
            return None
        return self.switches[from_switch].port_to("switch", hop[1])

    def _first_hop(self, source: _Node, target: _Node) -> Optional[_Node]:
        """Second node of a shortest ``source``-``target`` path, if any.

        Bidirectional BFS: the smaller fringe grows (the source's on
        ties), neighbours are visited in insertion order, and the first
        node seen from both ends is where the path meets.  That order is
        what picks one of several equal-length paths, hence what every
        proactively installed flow table looks like; it is the order of
        the graph library this search replaced, and
        ``tests/sdn/test_topology_paths.py`` holds the two against each
        other.
        """
        adjacency = self._adjacency
        pred: Dict[_Node, Optional[_Node]] = {source: None}
        succ: Dict[_Node, Optional[_Node]] = {target: None}

        def first_hop(meet: _Node) -> _Node:
            # The source side expands first, so by the time the target
            # side could reach the source it has met one of its neighbours.
            while pred[meet] != source:
                meet = pred[meet]
            return meet

        forward, reverse = [source], [target]
        while forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                for node in level:
                    for neighbour in adjacency[node]:
                        if neighbour not in pred:
                            forward.append(neighbour)
                            pred[neighbour] = node
                        if neighbour in succ:
                            return first_hop(neighbour)
            else:
                level, reverse = reverse, []
                for node in level:
                    for neighbour in adjacency[node]:
                        if neighbour not in succ:
                            succ[neighbour] = node
                            reverse.append(neighbour)
                        if neighbour in pred:
                            return first_hop(neighbour)
        return None

    def port_towards_host(self, switch_id: int, host_id: int) -> Optional[int]:
        """Port on ``switch_id`` on the shortest path towards ``host_id``."""
        host = self.hosts.get(host_id)
        if host is None:
            return None
        if host.switch_id == switch_id:
            return host.port
        return self.next_hop_port(switch_id, host.switch_id)

    # ------------------------------------------------------------------
    # Proactive core configuration
    # ------------------------------------------------------------------

    def install_core_routes(self, core_switches: Optional[Iterable[int]] = None,
                            priority: int = 1) -> int:
        """Install shortest-path routes to every host on the given switches.

        Mirrors the proactive configuration of the Stanford campus core in
        the paper's experimental setup.  Returns the number of entries
        installed.
        """
        targets = list(core_switches) if core_switches is not None \
            else list(self.switches)
        installed = 0
        for switch_id in targets:
            for host in self.hosts.values():
                port = self.port_towards_host(switch_id, host.host_id)
                if port is None:
                    continue
                entry = FlowEntry.create({"dst_ip": host.ip}, port,
                                         priority=priority)
                self.switches[switch_id].flow_table.install(entry)
                installed += 1
        return installed


# ---------------------------------------------------------------------------
# Canonical topologies
# ---------------------------------------------------------------------------


def figure1_topology() -> Topology:
    """The running example of Figures 1 and 2.

    Layout (switch ports in parentheses)::

        clients --(10+)-- S1 --(1)--> S2 --(1)--> H1   (primary web server)
                           \\--(2)--> S3 --(2)--> H2   (backup web server)
                                       \\--(1)--> DNS

    Host ids: clients get ids 100+, H1=11, H2=12, DNS=13.
    """
    topo = Topology(name="figure1")
    topo.add_switch(1, "S1")
    topo.add_switch(2, "S2")
    topo.add_switch(3, "S3")
    # Inter-switch links; port numbers chosen to match the rules of Figure 2:
    # on S1, port 1 leads to S2 and port 2 to S3; on S2, port 2 leads to S3.
    topo.add_link(1, 1, 2, 3)
    topo.add_link(1, 2, 3, 3)
    topo.add_link(2, 2, 3, 4)
    # Servers.
    topo.add_host(2, 1, role="web", name="H1", host_id=11)
    topo.add_host(3, 2, role="web", name="H2", host_id=12)
    topo.add_host(3, 1, role="dns", name="DNS", host_id=13)
    # A handful of clients attached to the ingress switch S1.
    for index in range(4):
        topo.add_host(1, 10 + index, role="client", name=f"C{index + 1}",
                      host_id=100 + index)
    return topo


def stanford_campus(core_switches: int = 16, edge_networks: int = 3,
                    hosts_per_edge: int = 80, clients_per_edge: Optional[int] = None,
                    name: str = "stanford-campus") -> Topology:
    """A Stanford-campus-like topology (Section 5.2).

    ``core_switches`` routers form the campus core: two backbone routers plus
    Operational-Zone routers attached to both backbones.  Each of the
    ``edge_networks`` edge switches hangs off one core router and hosts
    ``hosts_per_edge`` end hosts (the first host of edge network 0 plays the
    web-server role, the first host of edge network 1 the DNS-server role).

    The defaults give the paper's smallest configuration: 16 + 3 = 19
    switches and roughly 240-260 hosts.
    """
    if core_switches < 3:
        raise ValueError("the campus core needs at least 3 switches")
    topo = Topology(name=name)
    backbone = [1, 2]
    topo.add_switch(1, "bbra")
    topo.add_switch(2, "bbrb")
    topo.add_link(1, 1, 2, 1)
    # Operational-zone routers, dual-homed to both backbones.
    oz_routers = list(range(3, core_switches + 1))
    for index, switch_id in enumerate(oz_routers):
        topo.add_switch(switch_id, f"ozr{index + 1}")
        topo.add_link(switch_id, 1, 1, 10 + index)
        topo.add_link(switch_id, 2, 2, 10 + index)
    # Edge networks.
    attachment_points = oz_routers or backbone
    host_id = 1000
    edge_switch_ids = []
    for edge_index in range(edge_networks):
        edge_switch_id = core_switches + 1 + edge_index
        edge_switch_ids.append(edge_switch_id)
        topo.add_switch(edge_switch_id, f"edge{edge_index + 1}")
        core = attachment_points[edge_index % len(attachment_points)]
        topo.add_link(edge_switch_id, 1, core, 30 + edge_index)
        for host_index in range(hosts_per_edge):
            role = "client"
            suffix = f"e{edge_index + 1}h{host_index + 1}"
            if edge_index == 0 and host_index == 0:
                role = "web"
            elif edge_index == 1 and host_index == 0:
                role = "dns"
            topo.add_host(edge_switch_id, 10 + host_index, role=role,
                          name=suffix, host_id=host_id)
            host_id += 1
    # Proactive core configuration (edge switches stay reactive).
    topo.install_core_routes(core_switches=backbone + oz_routers)
    return topo


def scaled_campus(total_switches: int, hosts: int = 300,
                  name: str = "scaled-campus") -> Topology:
    """Campus topology with a given total switch count (Figure 9c sweep)."""
    core = max(3, min(16, total_switches - 3))
    edges = max(1, total_switches - core)
    hosts_per_edge = max(1, hosts // edges)
    return stanford_campus(core_switches=core, edge_networks=edges,
                           hosts_per_edge=hosts_per_edge, name=name)
