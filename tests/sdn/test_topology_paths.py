"""Shortest paths of :class:`repro.sdn.topology.Topology`.

``Topology`` finds next hops with its own bidirectional BFS.  Which of
several equal-length paths wins decides every proactively installed core
flow table, so the tie-break is pinned twice: against ``networkx`` (the
library the BFS replaced; those tests skip where it is not installed) and by
hand on cases small enough to read.
"""

import itertools
import random

import pytest

from repro.scenarios import q1_copy_paste
from repro.scenarios.q1_copy_paste import q1_topology
from repro.sdn import topology as topology_module
from repro.sdn.topology import (Topology, figure1_topology, scaled_campus,
                                stanford_campus)


# ---------------------------------------------------------------------------
# Oracle-free: error contract and hand-checked tie-breaks
# ---------------------------------------------------------------------------


def test_unknown_switch_is_a_key_error():
    topo = figure1_topology()
    with pytest.raises(KeyError) as excinfo:
        topo.next_hop_port(1, 99)
    assert excinfo.value.args == (99,)
    with pytest.raises(KeyError) as excinfo:
        topo.next_hop_port(98, 1)
    assert excinfo.value.args == (98,)
    with pytest.raises(KeyError) as excinfo:
        topo.port_towards_host(97, 11)
    assert excinfo.value.args == (97,)


def test_same_switch_has_no_next_hop():
    topo = figure1_topology()
    assert topo.next_hop_port(2, 2) is None
    # ... and a host on the switch itself is reached through its own port.
    assert topo.port_towards_host(2, 11) == 1


def test_next_hop_that_is_a_host_is_not_a_port():
    topo = Topology()
    # A host homed on two switches is the only thing joining them.
    topo.add_host(1, 5, host_id=50)
    topo.add_host(2, 6, host_id=50)
    assert topo.next_hop_port(1, 2) is None
    assert topo.next_hop_port(2, 1) is None


def test_disconnected_pair_has_no_path():
    topo = figure1_topology()
    topo.add_switch(9, "island")
    topo.add_host(9, 1, host_id=900)
    assert topo.next_hop_port(1, 9) is None
    assert topo.next_hop_port(9, 1) is None
    assert topo.port_towards_host(1, 900) is None
    assert topo.port_towards_host(1, 12345) is None  # no such host
    before = len(topo.switch(9).flow_table)
    # Only the island's own host is routable from the island.
    assert topo.install_core_routes([9]) == 1
    assert len(topo.switch(9).flow_table) == before + 1


def test_tie_between_the_two_backbones_is_pinned():
    """ozr -> ozr has two 2-hop paths, via bbra (port 1) and bbrb (port 2).

    Both fringes have one node, so the forward side expands first and finds
    bbra, then bbrb; then the reverse side expands and meets bbra first,
    because every ozr was linked to bbra before bbrb.
    """
    topo = stanford_campus(core_switches=7, edge_networks=3, hosts_per_edge=2)
    oz_routers = range(3, 8)
    for a in oz_routers:
        for b in oz_routers:
            if a != b:
                assert topo.next_hop_port(a, b) == 1, (a, b)
    # A backbone reaches an edge network through that network's ozr ...
    assert topo.next_hop_port(1, 8) == topo.switch(1).port_to("switch", 3)
    # ... and an edge switch has a single uplink.
    assert topo.next_hop_port(8, 9) == 1
    # The link order is what breaks the tie: wire bbrb first and it wins.
    flipped = Topology()
    for oz in (3, 4):
        flipped.add_link(oz, 2, 2, 10 + oz)
        flipped.add_link(oz, 1, 1, 10 + oz)
    assert flipped.next_hop_port(3, 4) == 2


def test_tie_goes_to_the_forward_side_first():
    """A square 1-4-3-2-1 whose opposite corners list their neighbours in
    opposite orders (1: [4, 2]; 3: [2, 4]).  On equal fringes the source side
    expands first, so the *target's* first neighbour is where the two
    searches meet; expanding the target side first would give the other
    path."""
    topo = Topology()
    for a, b in ((1, 4), (2, 3), (3, 4), (1, 2)):
        topo.add_link(a, 10 * b, b, 10 * a)     # port number names the peer
    assert topo.next_hop_port(1, 3) == 20   # 3 lists [2, 4]
    assert topo.next_hop_port(3, 1) == 40   # 1 lists [4, 2]
    assert topo.next_hop_port(2, 4) == 10   # 4 lists [1, 3]
    assert topo.next_hop_port(4, 2) == 30   # 2 lists [3, 1]


# ---------------------------------------------------------------------------
# Against networkx
# ---------------------------------------------------------------------------


@pytest.fixture
def mirrored(monkeypatch):
    """Make the topology factories build :class:`Topology` subclasses that
    also feed every node and edge to a ``networkx`` graph, call for call as
    ``Topology`` itself did while it was built on ``networkx``."""
    nx = pytest.importorskip("networkx")

    class Mirrored(Topology):
        def __init__(self, name="topology"):
            super().__init__(name)
            self.graph = nx.Graph()

        def add_switch(self, switch_id, name=""):
            self.graph.add_node(("switch", switch_id))
            return super().add_switch(switch_id, name)

        def add_host(self, switch_id, port, role="client", name="",
                     host_id=None):
            host = super().add_host(switch_id, port, role, name, host_id)
            self.graph.add_node(("host", host.host_id))
            self.graph.add_edge(("switch", switch_id),
                                ("host", host.host_id))
            return host

        def add_link(self, switch_a, port_a, switch_b, port_b):
            super().add_link(switch_a, port_a, switch_b, port_b)
            self.graph.add_edge(("switch", switch_a), ("switch", switch_b))

    monkeypatch.setattr(topology_module, "Topology", Mirrored)
    monkeypatch.setattr(q1_copy_paste, "Topology", Mirrored)
    return nx


def oracle_next_hop_port(nx, topo, from_switch, to_switch):
    if from_switch == to_switch:
        return None
    try:
        path = nx.shortest_path(topo.graph, ("switch", from_switch),
                                ("switch", to_switch))
    except nx.NetworkXNoPath:
        return None
    kind, identifier = path[1]
    if kind != "switch":
        return None
    return topo.switch(from_switch).port_to("switch", identifier)


def assert_paths_match(nx, topo, routed_switches):
    """Every ordered switch pair, and the flow tables of ``routed_switches``
    (which ``install_core_routes`` must already have filled)."""
    for a in topo.switches:
        for b in topo.switches:
            assert topo.next_hop_port(a, b) == \
                oracle_next_hop_port(nx, topo, a, b), (topo.name, a, b)
    for switch_id in routed_switches:
        expected = []
        for host in topo.hosts.values():
            port = host.port if host.switch_id == switch_id else \
                oracle_next_hop_port(nx, topo, switch_id, host.switch_id)
            if port is not None:
                expected.append(((("dst_ip", host.ip),), port))
        installed = [(entry.match, entry.out_port)
                     for entry in topo.switch(switch_id).flow_table.entries()]
        assert installed == expected, (topo.name, switch_id)


@pytest.mark.parametrize("factory", [figure1_topology, q1_topology])
def test_paper_topologies_match_networkx(mirrored, factory):
    topo = factory()
    topo.install_core_routes()
    assert_paths_match(mirrored, topo, list(topo.switches))


@pytest.mark.parametrize("core", [3, 4, 7, 16])
@pytest.mark.parametrize("edges", [1, 3, 5, 20])
def test_stanford_campus_matches_networkx(mirrored, core, edges):
    topo = stanford_campus(core_switches=core, edge_networks=edges,
                           hosts_per_edge=3)
    assert_paths_match(mirrored, topo, range(1, core + 1))


@pytest.mark.parametrize("switches", [4, 10, 19, 49, 169])
def test_scaled_campus_matches_networkx(mirrored, switches):
    topo = scaled_campus(switches)
    assert topo.switch_count() == switches
    core = max(3, min(16, switches - 3))
    assert_paths_match(mirrored, topo, range(1, core + 1))


def test_random_topologies_match_networkx(mirrored):
    rng = random.Random(20170327)
    for _ in range(150):
        topo = topology_module.Topology()
        switches = list(range(1, rng.randint(3, 9)))
        pairs = list(itertools.combinations(switches, 2))
        rng.shuffle(pairs)
        ports = itertools.count(1)
        for a, b in pairs[:rng.randint(1, len(switches) + 3)]:
            if rng.random() < 0.5:
                a, b = b, a
            topo.add_link(a, next(ports), b, next(ports))
        for host_id in range(100, 100 + rng.randint(0, 6)):
            topo.add_host(rng.choice(switches), next(ports), host_id=host_id)
        topo.install_core_routes()
        assert_paths_match(mirrored, topo, list(topo.switches))


def test_disconnected_and_multihomed_match_networkx(mirrored):
    topo = figure1_topology()
    topo.add_host(9, 1, host_id=900)           # an island
    topo.add_host(7, 5, host_id=50)            # two switches joined only
    topo.add_host(8, 6, host_id=50)            # by a multi-homed host
    topo.add_link(7, 1, 1, 20)
    topo.install_core_routes()
    assert_paths_match(mirrored, topo, list(topo.switches))
