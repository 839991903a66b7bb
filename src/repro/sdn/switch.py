"""Switches, flow tables and flow entries.

A flow entry matches on a subset of header fields (missing fields are
wildcards) and carries an action: forward out of a port, drop, or send to the
controller.  Matching follows OpenFlow conventions: the highest-priority
matching entry wins; a table miss sends the packet to the controller.

Matching reads *positions*, not names: a packet carries its header values as
a tuple (:attr:`~repro.sdn.packets.Packet.header_values`), a lookup appends
``(in_port, None)`` to it once, and each exact-match signature of a table
owns a getter (:func:`~repro.sdn.packets.header_getter`, compiled the first
time the signature is installed) that turns that tuple into the signature's
bucket key — one C-level call and one dict probe per signature, however many
fields it names.  A getter is a pure function of its signature and packets
are frozen, so there is nothing to invalidate.  Among the matches, a lookup
keeps the best by comparing priority, then install sequence — no rank tuple
is built per candidate entry.

A :class:`FlowEntry` is a plain value (a ``NamedTuple``): a controller
builds one per derived flow tuple, positionally, and a table keys its
entries by value, so an exact duplicate replaces the entry it equals.  The
hop loop (:meth:`repro.sdn.network.NetworkSimulator.run_trace`) calls
:meth:`FlowTable.lookup` once per hop and reads the neighbour behind the
chosen port from :attr:`Switch.links`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .packets import (ABSENT_POSITION, HEADER_FIELDS, HEADER_POSITIONS,
                      IN_PORT_FIELD, Packet, header_getter)


#: Pseudo "ports" with special meaning in actions.
DROP_PORT = -1
CONTROLLER_PORT = -2
FLOOD_PORT = -3

#: Header fields a flow entry may match on.
MATCH_FIELDS = HEADER_FIELDS + (IN_PORT_FIELD,)


class FlowEntry(NamedTuple):
    """A single flow-table entry, a plain value built positionally.

    ``match`` maps field names (from :data:`MATCH_FIELDS`, plus ``in_port``)
    to required values; fields not present are wildcarded.  ``out_port`` is a
    physical port number, or one of the special pseudo ports.  Two entries
    with equal fields are equal: a flow table keys its entries by value
    (:class:`FlowTable`).
    """

    match: Tuple[Tuple[str, object], ...]
    out_port: int
    priority: int = 1

    @classmethod
    def create(cls, match: Dict[str, object], out_port: int,
               priority: int = 1) -> "FlowEntry":
        for field_name in match:
            if field_name not in MATCH_FIELDS:
                raise ValueError(f"unknown match field {field_name!r}")
        return cls(tuple(sorted(match.items())), out_port, priority)

    def matches(self, packet: Packet, in_port: Optional[int] = None) -> bool:
        values = packet.header_values + (in_port, None)
        for field_name, value in self.match:
            if value == "*":
                continue
            if values[HEADER_POSITIONS.get(field_name,
                                           ABSENT_POSITION)] != value:
                return False
        return True

    def __str__(self):
        match = ", ".join(f"{k}={v}" for k, v in self.match) or "any"
        action = {DROP_PORT: "drop", CONTROLLER_PORT: "to-controller",
                  FLOOD_PORT: "flood"}.get(self.out_port, f"fwd({self.out_port})")
        return f"FlowEntry[{match} -> {action} prio={self.priority}]"


class FlowTable:
    """A priority-ordered collection of flow entries, indexed as it is built.

    An entry is its own identity (a :class:`FlowEntry` is a value): entries
    live in one insertion-ordered dict from entry to ``(sequence number,
    entry)``, so a table never holds two exact duplicates.  Lookups are
    indexed by *exact-match signature*: entries that wildcard no field are
    grouped by the tuple of fields they match on, and within each group
    hashed on their match values, so a lookup probes one bucket per distinct
    signature instead of scanning the whole table.  Each group keeps the
    compiled getter that reads its fields out of a packet's value tuple (a
    name that is no match field reads ``None``).  Entries with a ``*``
    wildcard value go to a small residual list that is still scanned
    linearly (reactive programs install them rarely — e.g. the Q5
    MAC-learning heads).

    The table has two mutators, :meth:`install` and :meth:`clear`, and both
    update the index in place, so it is never stale: a FlowMod costs one
    dict probe and one bucket append however large the table is.  The
    highest-priority match wins; among equal priorities the lowest sequence
    number does, i.e. the entry installed first.  Re-installing an exact
    duplicate replaces the object and takes a fresh sequence number, which
    moves the entry to the back of that tie-break and of :meth:`entries`.
    :meth:`copy` re-installs the entries, in that order, into a new table.
    """

    def __init__(self):
        #: entry -> (sequence, entry), in install order
        self._entries: Dict[FlowEntry, Tuple[int, FlowEntry]] = {}
        #: signature (ordered field names) ->
        #:     (key getter, match values -> [(sequence, entry)])
        self._exact: Dict[Tuple[str, ...],
                          Tuple[Callable[[Tuple], Tuple],
                                Dict[Tuple, List[Tuple[int, FlowEntry]]]]] = {}
        #: [(sequence, entry)] for entries with wildcard ("*") values
        self._residual: List[Tuple[int, FlowEntry]] = []
        self._sequence = itertools.count()

    def install(self, entry: FlowEntry) -> FlowEntry:
        """Install an entry, replacing an exact duplicate if there is one.

        Overlapping entries with the same match but different actions are
        allowed to co-exist (as in OpenFlow); lookups resolve ties in favour
        of the entry installed first, which keeps forwarding deterministic.
        """
        signature, values = tuple(zip(*entry.match)) or ((), ())
        if "*" in values:
            bucket = self._residual
        else:
            group = self._exact.get(signature)
            if group is None:
                group = self._exact[signature] = (header_getter(signature), {})
            bucket = group[1].setdefault(values, [])
        duplicate = self._entries.pop(entry, None)
        if duplicate is not None:
            bucket.remove(duplicate)
        ranked = (next(self._sequence), entry)
        self._entries[entry] = ranked
        bucket.append(ranked)
        return entry

    def clear(self):
        self._entries.clear()
        self._exact.clear()
        self._residual.clear()

    def copy(self) -> "FlowTable":
        """A table of this one's entries, installed in its install order,
        so every tie-break among equal priorities is the same; neither
        table's later installs reach the other."""
        table = FlowTable()
        for entry in self.entries():
            table.install(entry)
        return table

    def entries(self) -> List[FlowEntry]:
        return [entry for _sequence, entry in self._entries.values()]

    def lookup(self, packet: Packet,
               in_port: Optional[int] = None) -> Optional[FlowEntry]:
        """Return the best matching entry, or ``None`` on a table miss.

        The winner is the highest-priority match; among equal priorities
        the entry installed first wins, exactly as the pre-index linear
        scan did.
        """
        values = packet.header_values + (in_port, None)
        best: Optional[FlowEntry] = None
        best_priority = best_sequence = 0
        for key_of, buckets in self._exact.values():
            for sequence, entry in buckets.get(key_of(values), ()):
                priority = entry.priority
                if best is None or priority > best_priority or (
                        priority == best_priority and sequence < best_sequence):
                    best, best_priority, best_sequence = \
                        entry, priority, sequence
        for sequence, entry in self._residual:
            if not entry.matches(packet, in_port):
                continue
            priority = entry.priority
            if best is None or priority > best_priority or (
                    priority == best_priority and sequence < best_sequence):
                best, best_priority, best_sequence = entry, priority, sequence
        return best

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self.entries())


@dataclass
class Switch:
    """A simulated OpenFlow switch."""

    switch_id: int
    flow_table: FlowTable = field(default_factory=FlowTable)
    name: str = ""
    #: port number -> ("switch", switch_id) or ("host", host_id).  This and
    #: the link record below are written only by :meth:`attach`, which keeps
    #: them in step.
    ports: Dict[int, Tuple[str, int]] = field(default_factory=dict,
                                              init=False)
    #: port number -> (kind, identifier, arrival port): the neighbour and
    #: the port on which a packet sent out of this port arrives there
    #: (``None`` for a host) — what the hop loop reads per hop.
    links: Dict[int, Tuple[str, int, Optional[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name:
            self.name = f"S{self.switch_id}"

    def attach(self, port: int, kind: str, identifier: int,
               arrival_port: Optional[int] = None):
        """Connect ``port`` to a neighbour; ``arrival_port`` is the port a
        packet sent out of ``port`` arrives on at a neighbouring switch."""
        if kind not in ("switch", "host"):
            raise ValueError(f"unknown attachment kind {kind!r}")
        self.ports[port] = (kind, identifier)
        self.links[port] = (kind, identifier, arrival_port)

    def replica(self) -> "Switch":
        """This switch with a flow table of its own (a :meth:`FlowTable.copy`)
        and the same :attr:`ports` and :attr:`links` records, shared: a
        replay installs entries and never attaches a port."""
        switch = Switch(self.switch_id, self.flow_table.copy(), self.name)
        switch.ports = self.ports
        switch.links = self.links
        return switch

    def port_to(self, kind: str, identifier: int) -> Optional[int]:
        """The first port, in attach order, that leads to the neighbour
        (routing's question; the hop loop reads :attr:`links`)."""
        for port, neighbor in self.ports.items():
            if neighbor == (kind, identifier):
                return port
        return None

    def __str__(self):
        return f"{self.name}(ports={sorted(self.ports)}, entries={len(self.flow_table)})"
