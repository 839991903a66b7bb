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
one destination per injected packet beside its counters.  A hop reads the
port it leaves by from the flow table and the neighbour behind it from the
switch's link record for that port (:attr:`~repro.sdn.switch.Switch.links`,
written when the topology attaches the port), which also names the port
the packet enters the next switch on — the far end of the link actually
taken, even where two switches share several links.

OpenFlow-faithful detail that matters for scenario Q4: when a packet misses
in the flow table, installing a flow entry is *not* enough to forward that
packet — the switch buffered it and only releases it when the controller also
sends a ``PacketOut``.  Subsequent packets of the flow match the new entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .controller import Controller, FlowMod, PacketInEvent, PacketOut
from .log import HistoricalLog
from .packets import Packet
from .switch import DROP_PORT, FLOOD_PORT, FlowEntry, Switch
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
                 tag: Optional[str] = None,
                 record_ingress: bool = True):
        self.topology = topology
        self.controller = controller
        self.log = log if log is not None else HistoricalLog()
        self.require_packet_out = require_packet_out
        self.max_hops = max_hops
        self.tag = tag
        self.record_ingress = record_ingress
        self.stats = TrafficStats()
        self._started = False
        #: Batched-replay state, live only while a burst is being walked:
        #: precomputed controller responses keyed by PacketIn tuple key.
        self._burst_adapter = None
        self._burst_responses: Dict[Tuple, "_PendingResponse"] = {}

    # ------------------------------------------------------------------
    # Control-plane plumbing
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # Packet forwarding
    # ------------------------------------------------------------------

    def inject(self, packet: Packet, at_switch: int,
               in_port: Optional[int] = None,
               ingress_entry: Optional[FlowEntry] = None) -> int:
        """Inject one packet at a switch, walk it to its fate and return its
        destination (a host id, or :data:`DROPPED`).

        If ``in_port`` is not given and the packet's source host is attached
        to the ingress switch, the host's port is used (this is what a real
        switch would report in the PacketIn).  ``ingress_entry`` lets batched
        replay reuse the probe phase's ingress lookup result.
        """
        if not self._started:
            self.start()
        if in_port is None:
            # Host ids double as addresses.
            source = self.topology.hosts.get(packet.src_ip)
            if source is not None and source.switch_id == at_switch:
                in_port = source.port
        if self.record_ingress:
            self.log.record_packet(at_switch, packet, in_port)
        destination = self._forward(packet, at_switch, in_port, ingress_entry)
        stats = self.stats
        stats.total += 1
        stats.destinations.append(destination)
        if destination == DROPPED:
            stats.dropped += 1
        else:
            stats.delivered_per_host[destination] = \
                stats.delivered_per_host.get(destination, 0) + 1
        return destination

    def _resolve_in_port(self, packet: Packet, at_switch: int) -> Optional[int]:
        """The ingress port burst replay probes with (``inject`` resolves
        its own the same way, inline)."""
        source = self.topology.hosts.get(packet.src_ip)
        if source is not None and source.switch_id == at_switch:
            return source.port
        return None

    def run_trace(self, trace: Iterable[Tuple[int, Packet]],
                  batch_size: Optional[int] = None) -> TrafficStats:
        """Inject every (ingress switch, packet) pair of a trace.

        With ``batch_size`` set (and a controller whose program admits
        batched replay — see :mod:`repro.controllers.batching`), the trace
        is replayed in bursts: each burst's ingress table misses are
        predicted up front, their PacketIn events are handled with one
        controller batch call per switch (one engine fixpoint per batch),
        and the packets are then walked in original order consuming the
        precomputed responses.  Results are bit-identical to per-packet
        replay; controllers without an adapter simply replay per-packet.
        """
        adapter = None
        if batch_size is not None and batch_size > 1:
            factory = getattr(self.controller, "batch_replay_adapter", None)
            if factory is not None:
                adapter = factory()
        if adapter is None:
            for switch_id, packet in trace:
                self.inject(packet, switch_id)
            return self.stats
        trace = list(trace)
        for start in range(0, len(trace), batch_size):
            self._run_burst(trace[start:start + batch_size], adapter)
        return self.stats

    def _run_burst(self, burst: Sequence[Tuple[int, Packet]], adapter) -> None:
        """Replay one burst: probe ingress misses, batch them, then walk.

        The probe phase is exact because adapter eligibility guarantees that
        a packet's hit/miss status depends only on its PacketIn tuple key
        (flow entries are wildcard-free and match on exactly the tuple's
        packet fields), so installs performed mid-burst can only affect
        packets sharing the installing packet's key — and those are served
        the same precomputed response instead of being re-probed.
        """
        self.start()
        inert_probe = getattr(adapter, "is_inert", None)
        pending_keys: List[Tuple] = []
        probe_events: Dict[Tuple, PacketInEvent] = {}
        inert_keys: set = set()
        walk_plan: List[Tuple[int, Packet, Optional[int],
                              Optional[FlowEntry]]] = []
        for switch_id, packet in burst:
            switch = self.topology.switches.get(switch_id)
            if switch is None:
                walk_plan.append((switch_id, packet, None, None))
                continue
            in_port = self._resolve_in_port(packet, switch_id)
            entry = switch.lookup(packet, in_port, tag=self.tag)
            # A probed hit stays a hit (installs never shadow an existing
            # exact-match winner mid-burst), so the walk reuses the entry.
            walk_plan.append((switch_id, packet, in_port, entry))
            if entry is not None:
                continue
            key = adapter.key(switch_id, packet, in_port)
            if key in probe_events or key in inert_keys:
                continue
            if inert_probe is not None and inert_probe(key):
                # Provably no rule fires for this key: serve the empty
                # response without ever reaching the engine.
                inert_keys.add(key)
                continue
            probe_events[key] = PacketInEvent(
                switch_id=switch_id, packet=packet, in_port=in_port,
                time=self.log.clock)
            pending_keys.append(key)
        groups: Dict[int, List[Tuple]] = {}
        for key in pending_keys:
            groups.setdefault(probe_events[key].switch_id, []).append(key)
        self._burst_adapter = adapter
        self._burst_responses = {}
        try:
            for key in inert_keys:
                self._burst_responses[key] = _PendingResponse(_INERT_RESPONSE)
            for keys in groups.values():
                responses = adapter.handle([probe_events[key] for key in keys])
                for key, response in zip(keys, responses):
                    self._burst_responses[key] = _PendingResponse(response)
            for switch_id, packet, in_port, entry in walk_plan:
                self.inject(packet, switch_id, in_port=in_port,
                            ingress_entry=entry)
        finally:
            self._burst_adapter = None
            self._burst_responses = {}

    def _forward(self, packet: Packet, switch_id: int,
                 in_port: Optional[int],
                 entry: Optional[FlowEntry] = None) -> int:
        """The one hop loop: the packet's destination.  ``entry``, when
        given, is the ingress switch's lookup result, already known."""
        switches = self.topology.switches
        for _hop in range(self.max_hops):
            switch = switches.get(switch_id)
            if switch is None:
                return DROPPED
            if entry is None:
                entry = switch.flow_table.lookup(packet, in_port, self.tag)
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
        messages = self._controller_response(event)
        packet_outs = self._apply_messages(messages)
        for message in packet_outs:
            if message.switch_id == switch.switch_id:
                return message.port
        if self.require_packet_out:
            return None
        # Lenient mode: retry the lookup with any freshly installed entries.
        entry = switch.lookup(packet, in_port, tag=self.tag)
        if entry is not None and entry.out_port != DROP_PORT:
            return entry.out_port
        return None

    def _controller_response(self, event: PacketInEvent):
        """The controller's response to one PacketIn, honouring burst state.

        During batched replay the first miss for a key consumes the
        precomputed response.  Later same-key misses may replay it only when
        the response derived nothing (the engine was left untouched, so a
        live call would deterministically return the same answer); anything
        else goes to the live controller, exactly like per-packet replay.
        Misses at keys the ingress probe never saw — downstream hops of a
        multi-switch walk — are answered with a deterministic empty
        response when the adapter proves the key inert, keeping the whole
        walk inside the burst's single batch call.
        """
        if self._burst_adapter is not None:
            key = self._burst_adapter.key(event.switch_id, event.packet,
                                          event.in_port)
            pending = self._burst_responses.get(key)
            if pending is not None:
                if not pending.served:
                    pending.served = True
                    return pending.response.messages_for(event.packet)
                if not pending.response.derived_any:
                    return pending.response.messages_for(event.packet)
            else:
                inert_probe = getattr(self._burst_adapter, "is_inert", None)
                if inert_probe is not None and inert_probe(key):
                    self._burst_responses[key] = _PendingResponse(
                        _INERT_RESPONSE)
                    return []
        return self.controller.handle_packet_in(event)

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


class _PendingResponse:
    """A precomputed burst response plus its served-once bookkeeping."""

    __slots__ = ("response", "served")

    def __init__(self, response):
        self.response = response
        self.served = False


class _InertResponse:
    """The response for a key no rule can fire on: no messages, replayable
    any number of times (``derived_any=False`` — the engine was never
    touched, so a live call would deterministically answer the same)."""

    derived_any = False

    @staticmethod
    def messages_for(_packet) -> List[object]:
        return []


_INERT_RESPONSE = _InertResponse()
