"""Controller interface and control-plane messages.

The simulated control channel mirrors the OpenFlow interactions the paper's
prototype uses: switches send ``PacketIn`` events to the controller on a
table miss; the controller responds with ``FlowMod`` messages (install a
flow entry) and ``PacketOut`` messages (forward the buffered packet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from .packets import Packet
from .switch import FlowEntry


@dataclass(frozen=True)
class PacketInEvent:
    """A table-miss notification sent from a switch to the controller."""

    switch_id: int
    packet: Packet
    in_port: Optional[int] = None
    time: int = 0


@dataclass(frozen=True)
class FlowMod:
    """Install a flow entry on a switch."""

    switch_id: int
    entry: FlowEntry

    def __str__(self):
        return f"FlowMod(S{self.switch_id}, {self.entry})"


@dataclass(frozen=True)
class PacketOut:
    """Tell a switch to emit the buffered packet on a given port."""

    switch_id: int
    port: int
    packet: Packet

    def __str__(self):
        return f"PacketOut(S{self.switch_id}, port {self.port}, {self.packet})"


ControlMessage = object   # FlowMod | PacketOut


class Controller:
    """Base class for SDN controller applications.

    Subclasses implement :meth:`handle_packet_in`; the simulator calls it on
    every table miss and applies the returned messages.  ``on_start`` may
    install proactive state before any traffic flows.
    """

    name = "controller"

    def on_start(self, network) -> List[ControlMessage]:
        """Called once before traffic is injected; may install proactive state."""
        return []

    def handle_packet_in(self, event: PacketInEvent) -> List[ControlMessage]:
        raise NotImplementedError


class StaticController(Controller):
    """A controller that installs a fixed set of flow entries and nothing else."""

    name = "static"

    def __init__(self, flow_mods: Sequence[FlowMod] = ()):
        self.flow_mods = list(flow_mods)

    def on_start(self, network) -> List[ControlMessage]:
        return list(self.flow_mods)

    def handle_packet_in(self, event: PacketInEvent) -> List[ControlMessage]:
        return []


class RecordingController(Controller):
    """Wraps another controller and records the control-plane conversation.

    This is the "runtime recording" component of the paper's prototype
    (Sections 4.3 and 5.4): every PacketIn the switches raise, in order, and
    the controller's answer to it.  A repair's Diagnose stage replays the
    buggy program once under this recorder, around the NDlog controller, and
    indexes the recorded PacketIns for the explorer
    (:meth:`repro.scenarios.base.NDlogScenario.recorded_run`).  Recording is
    transparent: the wrapped controller answers exactly as it would alone,
    so the same run's traffic statistics are the backtest baseline.  With a
    :class:`~repro.sdn.log.HistoricalLog` the conversation is also appended
    to that log (the Section 5.4 storage accounting); a repair passes none.
    """

    def __init__(self, inner: Controller, log=None):
        self.inner = inner
        self.log = log
        self.packet_ins: List[PacketInEvent] = []
        self.responses: List[List[ControlMessage]] = []
        self.name = f"recording({inner.name})"

    def on_start(self, network) -> List[ControlMessage]:
        messages = self.inner.on_start(network)
        if self.log is not None:
            for message in messages:
                self.log.record_control_message(message, time=0)
        return messages

    def handle_packet_in(self, event: PacketInEvent) -> List[ControlMessage]:
        messages = self.inner.handle_packet_in(event)
        self.packet_ins.append(event)
        self.responses.append(list(messages))
        if self.log is not None:
            self.log.record_packet_in(event)
            for message in messages:
                self.log.record_control_message(message, time=event.time)
        return messages
