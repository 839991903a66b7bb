"""Historical logging of data-plane and control-plane activity.

Section 4.3 / 5.4 of the paper: the runtime records control-plane messages
and a packet log (about 120 bytes per packet); diagnostic queries and
backtesting later replay this history.  :class:`HistoricalLog` is that
recorder.  It also computes the storage-overhead numbers reported in
Section 5.4.  It records what entered the network and what the controller
said, not where packets ended up: a replay recomputes that, and a
simulation's :class:`~repro.sdn.network.TrafficStats` keeps it as one
destination per packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .controller import ControlMessage, FlowMod, PacketInEvent, PacketOut
from .packets import Packet


#: Size of one packet-log entry in bytes (packet header + timestamp), as
#: reported in Section 5.4 of the paper.
LOG_ENTRY_BYTES = 120


@dataclass(frozen=True)
class PacketRecord:
    """One logged data-plane packet observation."""

    time: int
    switch_id: int
    packet: Packet
    in_port: Optional[int] = None


class HistoricalLog:
    """Chronological record of packets and control messages."""

    def __init__(self):
        self.packet_records: List[PacketRecord] = []
        self.packet_in_events: List[PacketInEvent] = []
        self.control_messages: List[Tuple[int, ControlMessage]] = []
        self.clock = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def tick(self) -> int:
        self.clock += 1
        return self.clock

    def record_packet(self, switch_id: int, packet: Packet,
                      in_port: Optional[int] = None, time: Optional[int] = None):
        when = self.tick() if time is None else time
        self.packet_records.append(PacketRecord(when, switch_id, packet, in_port))

    def record_packet_in(self, event: PacketInEvent):
        self.packet_in_events.append(event)

    def record_control_message(self, message: ControlMessage, time: int = 0):
        self.control_messages.append((time, message))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def packets(self) -> List[Packet]:
        return [r.packet for r in self.packet_records]

    def flow_mods(self) -> List[FlowMod]:
        return [m for _, m in self.control_messages if isinstance(m, FlowMod)]

    def packet_outs(self) -> List[PacketOut]:
        return [m for _, m in self.control_messages if isinstance(m, PacketOut)]

    # ------------------------------------------------------------------
    # Storage accounting (Section 5.4)
    # ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        return LOG_ENTRY_BYTES * len(self.packet_records)

    def __len__(self):
        return len(self.packet_records)
