"""Simulated SDN substrate (the reproduction's Mininet/OpenFlow substitute).

Provides the data plane (switches, flow tables, links, hosts), the control
channel (PacketIn / FlowMod / PacketOut), topology builders including a
Stanford-campus-like network, and the historical log that meta provenance
and backtesting replay.
"""

from .controller import (
    ControlMessage,
    Controller,
    FlowMod,
    PacketInEvent,
    PacketOut,
    RecordingController,
    StaticController,
)
from .log import HistoricalLog, LOG_ENTRY_BYTES, PacketRecord
from .network import DROPPED, NetworkSimulator, TrafficStats
from .packets import (
    DNS_PORT,
    HTTP_PORT,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    dns_query,
    format_ip,
    http_request,
    icmp_ping,
)
from .switch import (
    CONTROLLER_PORT,
    DROP_PORT,
    FLOOD_PORT,
    FlowEntry,
    FlowTable,
    MATCH_FIELDS,
    Switch,
)
from .topology import Host, Topology, figure1_topology, scaled_campus, stanford_campus

__all__ = [
    "ControlMessage", "Controller", "FlowMod", "PacketInEvent", "PacketOut",
    "RecordingController", "StaticController",
    "HistoricalLog", "LOG_ENTRY_BYTES", "PacketRecord",
    "DROPPED", "NetworkSimulator", "TrafficStats",
    "DNS_PORT", "HTTP_PORT", "Packet", "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP",
    "dns_query", "format_ip", "http_request", "icmp_ping",
    "CONTROLLER_PORT", "DROP_PORT", "FLOOD_PORT", "FlowEntry", "FlowTable",
    "MATCH_FIELDS", "Switch",
    "Host", "Topology", "figure1_topology", "scaled_campus", "stanford_campus",
]
