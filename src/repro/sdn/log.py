"""Historical logging of data-plane and control-plane activity.

Section 4.3 / 5.4 of the paper: the runtime records control-plane messages
and a packet log (about 120 bytes per packet).  :class:`HistoricalLog` is
that log, and computes the storage-overhead numbers reported in Section
5.4.  It records what entered the network and what the controller said, not
where packets ended up: a replay recomputes that, and a simulation's
:class:`~repro.sdn.network.TrafficStats` keeps it as one destination per
packet.  A repair keeps no log: its Diagnose replays under the recorder
(:class:`~repro.sdn.controller.RecordingController`), whose PacketIns are
all the explorer reads, and nothing in a repair reads a packet log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .controller import ControlMessage, PacketInEvent
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

    def record_packet(self, switch_id: int, packet: Packet,
                      in_port: Optional[int] = None, time: Optional[int] = None):
        if time is None:
            self.clock += 1
            time = self.clock
        self.packet_records.append(PacketRecord(time, switch_id, packet, in_port))

    def record_packet_in(self, event: PacketInEvent):
        self.packet_in_events.append(event)

    def record_control_message(self, message: ControlMessage, time: int = 0):
        self.control_messages.append((time, message))

    # ------------------------------------------------------------------
    # Storage accounting (Section 5.4)
    # ------------------------------------------------------------------

    def storage_bytes(self) -> int:
        return LOG_ENTRY_BYTES * len(self.packet_records)

    def __len__(self):
        return len(self.packet_records)
