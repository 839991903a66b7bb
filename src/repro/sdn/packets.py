"""Packet model for the simulated SDN.

Packets are immutable records of header fields plus a payload size.  Header
fields use small integers (host ids double as addresses) so that they map
directly onto NDlog tuple values; helper functions render them as dotted
strings for human-readable logs.

A packet knows its match-field values once, as a tuple
(:attr:`Packet.header_values`, in :data:`HEADER_FIELDS` order, MAC defaults
applied), and everything that reads a header on the replay path — flow-table
lookups, residual ``*`` entries, PacketIn tuples — reads *positions* of
``header_values + (in_port, None)`` through a getter compiled once per list
of field names (:func:`header_getter`).  Packets are frozen and a getter is
a pure function of its field names, so nothing is ever invalidated.
:data:`HEADER_FIELDS` is the one place the order lives: a new header field
is added there (and to the dataclass), nowhere else.  :meth:`Packet.header`
stays as the public dict for code that wants names (the Table 3 front ends
of :mod:`repro.scenarios.other_languages`); a subclass overriding it is
**not** seen by the compiled readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence, Tuple


# Well-known ports / protocols used throughout the scenarios.
HTTP_PORT = 80
DNS_PORT = 53
PROTO_TCP = "tcp"
PROTO_UDP = "udp"
PROTO_ICMP = "icmp"

#: The header fields a flow entry or a PacketIn tuple may read, in the one
#: order :attr:`Packet.header_values` and every compiled getter use.
HEADER_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto",
                 "src_mac", "dst_mac")
#: Name of the pseudo header field carrying the ingress port.
IN_PORT_FIELD = "in_port"
#: field name -> position in ``packet.header_values + (in_port, None)``.
HEADER_POSITIONS: Dict[str, int] = {
    name: position
    for position, name in enumerate(HEADER_FIELDS + (IN_PORT_FIELD,))}
#: Position of the trailing ``None``: what a name that is no header field
#: reads, as ``header.get(name)`` would.
ABSENT_POSITION = len(HEADER_POSITIONS)


def header_getter(names: Sequence[str],
                  strict: bool = False) -> Callable[[Tuple], Tuple]:
    """Compile ``names`` into a C-level getter over
    ``packet.header_values + (in_port, None)`` that returns their values as
    a tuple (of any length, including 0 and 1).  A name that is no header
    field reads the trailing ``None``, as ``header.get(name)`` would; with
    ``strict`` it is a ``KeyError``, as ``header[name]`` would be."""
    if strict:
        indices = [HEADER_POSITIONS[name] for name in names]
    else:
        indices = [HEADER_POSITIONS.get(name, ABSENT_POSITION)
                   for name in names]
    if len(indices) == 1:
        # itemgetter(i) would return a bare value; a slice keeps the tuple.
        return itemgetter(slice(indices[0], indices[0] + 1))
    if not indices:
        return itemgetter(slice(0, 0))
    return itemgetter(*indices)


@dataclass(frozen=True)
class Packet:
    """A single packet traversing the simulated network."""

    src_ip: int
    dst_ip: int
    src_port: int = 0
    dst_port: int = 0
    proto: str = PROTO_TCP
    src_mac: Optional[int] = None
    dst_mac: Optional[int] = None
    size: int = 120
    #: The :data:`HEADER_FIELDS` values in order, MAC addresses defaulted to
    #: the IPs: what every lookup and PacketIn tuple reads.  Derived from the
    #: fields above at construction, so it takes no part in equality or repr.
    header_values: Tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "header_values", (
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            self.proto,
            self.src_mac if self.src_mac is not None else self.src_ip,
            self.dst_mac if self.dst_mac is not None else self.dst_ip))

    def header(self) -> Dict[str, object]:
        """Header fields as a dict keyed by canonical field names."""
        return dict(zip(HEADER_FIELDS, self.header_values))

    def with_fields(self, **changes) -> "Packet":
        """Return a copy with some header fields modified."""
        return replace(self, **changes)

    def __str__(self):
        return (f"{self.proto} "
                f"{format_ip(self.src_ip)}:{self.src_port} -> "
                f"{format_ip(self.dst_ip)}:{self.dst_port}")


def format_ip(address: int) -> str:
    """Render a small integer address as a dotted quad (10.0.x.y)."""
    if address is None:
        return "?"
    return f"10.0.{(address >> 8) & 0xFF}.{address & 0xFF}"


def http_request(src_ip: int, dst_ip: int, src_port: int = 40000) -> Packet:
    """Convenience constructor for an HTTP request packet."""
    return Packet(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                  dst_port=HTTP_PORT, proto=PROTO_TCP)


def dns_query(src_ip: int, dst_ip: int, src_port: int = 50000) -> Packet:
    """Convenience constructor for a DNS query packet."""
    return Packet(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                  dst_port=DNS_PORT, proto=PROTO_UDP)


def icmp_ping(src_ip: int, dst_ip: int) -> Packet:
    """Convenience constructor for an ICMP echo request."""
    return Packet(src_ip=src_ip, dst_ip=dst_ip, proto=PROTO_ICMP)
