"""The per-packet walk, kept as the oracle of the one hop loop.

Before ``NetworkSimulator.run_trace`` became the only walk, a trace replayed
packet by packet: ``run_trace`` called ``inject`` once per packet, which
resolved the ingress port, logged the packet, walked it in ``_forward`` (one
``FlowTable.lookup`` per hop, ``_handle_table_miss`` on a miss) and added the
packet to every ``TrafficStats`` counter on its own.  This module is that
walk as a class of its own, :class:`ParentWalkSimulator`, unchanged but for
what only the batched-replay burst path used (``ingress_entry``, the burst
responses and ``_controller_response``, which went with that path) and its
one ``Switch.lookup``, a wrapper that went too, read here as the
``switch.flow_table.lookup`` it called, and the ``tag`` lookup filter, which
went with the flow entries' tags, so
``tests/sdn/test_walk_differential.py`` can hold the new loop to it.  It
shares the flow table, the switches' link records and the messages with the
product, not the walk.  Never edit it to make a difference go away.

Imported by module name (``tests/conftest.py`` puts ``tests/`` on
``sys.path``), like ``padded_programs``.
"""

from typing import Iterable, List, Optional, Tuple

from repro.sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from repro.sdn.log import HistoricalLog
from repro.sdn.network import DROPPED, TrafficStats
from repro.sdn.packets import Packet
from repro.sdn.switch import DROP_PORT, FLOOD_PORT, Switch
from repro.sdn.topology import Topology


class ParentWalkSimulator:
    """Simulates packet forwarding under a given controller, one
    ``inject`` per packet."""

    def __init__(self, topology: Topology, controller: Controller,
                 log: Optional[HistoricalLog] = None,
                 require_packet_out: bool = True,
                 max_hops: int = 64,
                 record_ingress: bool = True):
        self.topology = topology
        self.controller = controller
        self.log = log if log is not None else HistoricalLog()
        self.require_packet_out = require_packet_out
        self.max_hops = max_hops
        self.record_ingress = record_ingress
        self.stats = TrafficStats()
        self._started = False

    def start(self):
        """Apply the controller's proactive configuration."""
        if self._started:
            return
        messages = self.controller.on_start(self)
        self._apply_messages(messages)
        self._started = True

    def _apply_messages(self, messages) -> List[PacketOut]:
        packet_outs: List[PacketOut] = []
        for message in messages:
            if isinstance(message, FlowMod):
                switch = self.topology.switches.get(message.switch_id)
                if switch is not None:
                    switch.flow_table.install(message.entry)
                    self.stats.flow_mod_count += 1
            elif isinstance(message, PacketOut):
                packet_outs.append(message)
                self.stats.packet_out_count += 1
        return packet_outs

    def inject(self, packet: Packet, at_switch: int,
               in_port: Optional[int] = None) -> int:
        """Inject one packet at a switch, walk it to its fate and return its
        destination (a host id, or :data:`DROPPED`)."""
        if not self._started:
            self.start()
        if in_port is None:
            # Host ids double as addresses.
            source = self.topology.hosts.get(packet.src_ip)
            if source is not None and source.switch_id == at_switch:
                in_port = source.port
        if self.record_ingress:
            self.log.record_packet(at_switch, packet, in_port)
        destination = self._forward(packet, at_switch, in_port)
        stats = self.stats
        stats.total += 1
        stats.destinations.append(destination)
        if destination == DROPPED:
            stats.dropped += 1
        else:
            stats.delivered_per_host[destination] = \
                stats.delivered_per_host.get(destination, 0) + 1
        return destination

    def run_trace(self, trace: Iterable[Tuple[int, Packet]]) -> TrafficStats:
        """Inject every (ingress switch, packet) pair of a trace."""
        for switch_id, packet in trace:
            self.inject(packet, switch_id)
        return self.stats

    def _forward(self, packet: Packet, switch_id: int,
                 in_port: Optional[int]) -> int:
        """The hop loop: the packet's destination."""
        switches = self.topology.switches
        entry = None
        for _hop in range(self.max_hops):
            switch = switches.get(switch_id)
            if switch is None:
                return DROPPED
            if entry is None:
                entry = switch.flow_table.lookup(packet, in_port)
            if entry is None:
                out_port = self._handle_table_miss(switch, packet, in_port)
                if out_port is None:
                    return DROPPED
            else:
                out_port = entry.out_port
                if out_port == DROP_PORT:
                    return DROPPED
                entry = None
            if out_port == FLOOD_PORT:
                return self._flood(switch, packet, in_port)
            link = switch.links.get(out_port)
            if link is None:
                return DROPPED
            kind, identifier, in_port = link
            if kind == "host":
                return identifier
            switch_id = identifier
        return DROPPED

    def _handle_table_miss(self, switch: Switch, packet: Packet,
                           in_port: Optional[int]) -> Optional[int]:
        """Raise PacketIn; return the PacketOut port for this packet, if any."""
        event = PacketInEvent(switch_id=switch.switch_id, packet=packet,
                              in_port=in_port, time=self.log.clock)
        self.stats.packet_in_count += 1
        messages = self.controller.handle_packet_in(event)
        packet_outs = self._apply_messages(messages)
        for message in packet_outs:
            if message.switch_id == switch.switch_id:
                return message.port
        if self.require_packet_out:
            return None
        # Lenient mode: retry the lookup with any freshly installed entries.
        entry = switch.flow_table.lookup(packet, in_port)
        if entry is not None and entry.out_port != DROP_PORT:
            return entry.out_port
        return None

    def _flood(self, switch: Switch, packet: Packet,
               in_port: Optional[int]) -> int:
        """Deliver to every host port of the switch except the ingress port.

        Flooding is restricted to the local switch (no propagation to other
        switches) to keep the simulation loop-free; this is sufficient for
        the MAC-learning scenario, where flooding only needs to reach the
        directly attached hosts.
        """
        candidates = [identifier for port, (kind, identifier)
                      in sorted(switch.ports.items())
                      if port != in_port and kind == "host"]
        if not candidates:
            return DROPPED
        # The destination host receives the flooded copy if it is attached
        # here; otherwise the first attached host stands in for "some host
        # received a gratuitous copy".
        return packet.dst_ip if packet.dst_ip in candidates else candidates[0]
