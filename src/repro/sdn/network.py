"""The data-plane simulator.

:class:`NetworkSimulator` walks packets through the topology switch by
switch, consulting flow tables, raising ``PacketIn`` events to the controller
on table misses, and applying the controller's ``FlowMod`` / ``PacketOut``
responses.  With ``record_ingress`` (the default) it logs every ingress
packet in a :class:`~repro.sdn.log.HistoricalLog` (control messages reach
the same log through a :class:`~repro.sdn.controller.RecordingController`):
the Section 5.4 recording.  A repair's replays — Diagnose's one recorded run
and every backtest replay — turn it off; none of them reads the log.

A packet's fate is one int, its *destination*: the id of the host that
received it, or :data:`DROPPED`.  That is all a verdict reads — the KS
sample value (Section 5.3) and the input of the scenarios' symptom checks —
so the walk builds no path and no record, and :class:`TrafficStats` keeps
one destination per injected packet beside its counters.

There is one walk, :meth:`NetworkSimulator.run_trace`.  Per call it binds
the switch and host maps, the statistics and the miss handler once; per
packet it resolves the ingress port inline (the source host's port when the
host hangs off the ingress switch, as a real switch would report it) and
then, per hop, makes one ``FlowTable.lookup`` — the only Python call a
table hit costs.  A hop reads the port it leaves by from the matched entry
and the neighbour behind it from the switch's link record for that port
(:attr:`~repro.sdn.switch.Switch.links`, written when the topology attaches
the port), which also names the port the packet enters the next switch on —
the far end of the link actually taken, even where two switches share
several links.  The totals (packets, drops) are added once per call.
A trace replayed in one call, in chunks or one call per packet is the
same execution.

Each call also keeps a *fate memo*, the exact-match microflow cache of an
Open vSwitch datapath: a dict from (ingress switch, header values) to the
packet's destination and its PacketIn count.  A packet found there is
recorded as any other (the Section 5.4 log is the same), takes that
destination and count, and walks no hop.  A walked packet's fate is stored
when its walk met no table miss, or when every miss left the controller's
:attr:`~repro.sdn.controller.Controller.version` where it was and was
answered with no message; any other miss clears the memo.  That is exact
because a walk reads only the flow tables, the topology and the packet's
headers (its ingress port follows from them), flow tables change only
through control messages, and an answer given while ``version`` stands
still changes nothing and would be the same again.  The memo dies with the
call, so nothing installed between calls meets a stale entry.

OpenFlow-faithful detail that matters for scenario Q4: when a packet misses
in the flow table, installing a flow entry is *not* enough to forward that
packet — the switch buffered it and only releases it when the controller also
sends a ``PacketOut``.  Subsequent packets of the flow match the new entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .controller import Controller, FlowMod, PacketInEvent, PacketOut
from .log import HistoricalLog
from .packets import Packet
from .switch import DROP_PORT, FLOOD_PORT, Switch
from .topology import Topology


#: The destination of a dropped packet.
DROPPED = -1


@dataclass
class TrafficStats:
    """Aggregate statistics of one simulation run."""

    delivered_per_host: Dict[int, int] = field(default_factory=dict)
    dropped: int = 0
    total: int = 0
    packet_in_count: int = 0
    flow_mod_count: int = 0
    packet_out_count: int = 0
    #: One entry per injected packet, in trace order: the receiving host's
    #: id, or :data:`DROPPED`.  This is the sample the two-sample KS test
    #: compares across repairs (Section 5.3: "the traffic distribution at
    #: end hosts"); dropped packets take part so that repairs which drop
    #: much more (or less) traffic also distort the distribution.
    destinations: List[int] = field(default_factory=list)

    def delivery_ratio(self) -> float:
        return (self.total - self.dropped) / self.total if self.total else 0.0

    def delivered_to(self, host_id: int) -> int:
        return self.delivered_per_host.get(host_id, 0)


class NetworkSimulator:
    """Simulates packet forwarding under a given controller."""

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

    # ------------------------------------------------------------------
    # Control-plane plumbing
    # ------------------------------------------------------------------

    def start(self):
        """Apply the controller's proactive configuration."""
        if self._started:
            return
        self._apply_messages(self.controller.on_start(self), None)
        self._started = True

    def _apply_messages(self, messages, switch_id: Optional[int]
                        ) -> Optional[int]:
        """Install every ``FlowMod`` and count every message; the port of
        the first ``PacketOut`` addressed to ``switch_id``, if any."""
        switches = self.topology.switches
        stats = self.stats
        port = None
        for message in messages:
            if isinstance(message, FlowMod):
                switch = switches.get(message.switch_id)
                if switch is not None:
                    switch.flow_table.install(message.entry)
                    stats.flow_mod_count += 1
            elif isinstance(message, PacketOut):
                stats.packet_out_count += 1
                if port is None and message.switch_id == switch_id:
                    port = message.port
        return port

    def _handle_table_miss(self, switch: Switch, packet: Packet,
                           in_port: Optional[int]) -> Optional[int]:
        """Raise PacketIn; return the PacketOut port for this packet, if any."""
        switch_id = switch.switch_id
        self.stats.packet_in_count += 1
        messages = self.controller.handle_packet_in(
            PacketInEvent(switch_id, packet, in_port, self.log.clock))
        port = self._apply_messages(messages, switch_id) if messages else None
        if port is not None or self.require_packet_out:
            return port
        # Lenient mode: retry the lookup with any freshly installed entries.
        entry = switch.flow_table.lookup(packet, in_port)
        if entry is not None and entry.out_port != DROP_PORT:
            return entry.out_port
        return None

    # ------------------------------------------------------------------
    # Packet forwarding
    # ------------------------------------------------------------------

    def run_trace(self, trace: Iterable[Tuple[int, Packet]]) -> TrafficStats:
        """Walk every (ingress switch, packet) pair of a trace to its
        destination, in order: the one hop loop, behind the call's fate
        memo (module docstring)."""
        started = self._started
        switches = self.topology.switches
        hosts = self.topology.hosts
        controller = self.controller
        stats = self.stats
        destinations = stats.destinations
        delivered = stats.delivered_per_host
        miss = self._handle_table_miss
        record = self.log.record_packet if self.record_ingress else None
        hops = range(self.max_hops)
        before = len(destinations)
        # The fate memo: (ingress switch, headers) -> (destination, PacketIns).
        fates: Dict[Tuple[int, Tuple], Tuple[int, int]] = {}
        remembered_packet_ins = 0
        try:
            for at_switch, packet in trace:
                if not started:     # on the first packet, as a switch would
                    self.start()
                    started = True
                # Host ids double as addresses.
                source = hosts.get(packet.src_ip)
                in_port = (source.port if source is not None
                           and source.switch_id == at_switch else None)
                if record is not None:
                    record(at_switch, packet, in_port)
                key = (at_switch, packet.header_values)
                fate = fates.get(key)
                if fate is not None:
                    destination, packet_ins = fate
                    remembered_packet_ins += packet_ins
                else:
                    switch_id = at_switch
                    destination = DROPPED
                    packet_ins = 0      # None: a miss may have changed state
                    for _hop in hops:
                        switch = switches.get(switch_id)
                        if switch is None:
                            break
                        entry = switch.flow_table.lookup(packet, in_port)
                        if entry is None:
                            version = controller.version
                            sent = stats.flow_mod_count + stats.packet_out_count
                            out_port = miss(switch, packet, in_port)
                            if (version is None
                                    or controller.version != version
                                    or sent != stats.flow_mod_count
                                    + stats.packet_out_count):
                                fates.clear()
                                packet_ins = None
                            elif packet_ins is not None:
                                packet_ins += 1
                            if out_port is None:
                                break
                        else:
                            out_port = entry.out_port
                            if out_port == DROP_PORT:
                                break
                        if out_port == FLOOD_PORT:
                            destination = self._flood(switch, packet, in_port)
                            break
                        link = switch.links.get(out_port)
                        if link is None:
                            break
                        kind, identifier, in_port = link
                        if kind == "host":
                            destination = identifier
                            break
                        switch_id = identifier
                    if packet_ins is not None:
                        fates[key] = (destination, packet_ins)
                destinations.append(destination)
                if destination != DROPPED:
                    delivered[destination] = delivered.get(destination, 0) + 1
        finally:
            walked = destinations[before:]
            stats.total += len(walked)
            stats.dropped += walked.count(DROPPED)
            stats.packet_in_count += remembered_packet_ins
        return stats

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
