"""Declarative (NDlog) controller — the RapidNet substitute.

The controller runs an NDlog program reactively: every ``PacketIn`` event is
turned into a ``PacketIn`` tuple and inserted into the engine; tuples derived
into the flow-entry table become ``FlowMod`` messages and tuples derived into
the packet-out table become ``PacketOut`` messages, exactly like the paper's
proxy "translates NDlog tuples into OpenFlow messages and vice versa".

Because different scenarios use different packet headers, the mapping between
packets and tuples is configurable through :class:`FieldMapping`.  Both
directions are compiled once per mapping and read positions, not names: a
PacketIn tuple is one getter over the packet's value tuple, and a flow tuple
becomes a ``FlowEntry`` through its layout's arity, match columns (sorted by
field name, checked against the match fields when compiled) and out-port
column — no dict, no sort and no validation per entry.
:meth:`NDlogController.handle_packet_in` turns what one PacketIn derived
straight into the message list the data plane applies — a ``FlowMod`` per
flow tuple, then the packet-outs — with no intermediate response
object; the messages are plain values (:mod:`repro.sdn.controller`).  A
replayed PacketIn thus costs the rule firing it triggers plus a fixed few
calls of translation.

A PacketIn that derives nothing is remembered, and its repeats never reach
the engine (the *empty-response memo*), when the program passes
:func:`engine_batch_safe`: then a PacketIn joins only tables no replay
changes, so nothing it derives depends on the PacketIns before it.  Such an
answer is always ``[]`` and changes nothing, so the controller's
:attr:`~repro.sdn.controller.Controller.version` counts only the PacketIns
that reach the engine: while it stands still, the simulator may remember
the fate of a packet whose misses the memo answered and not walk its
repeats at all (:mod:`repro.sdn.network`).

Packet-out tuples are one-shot messages: each one a PacketIn derives is
consumed (dropped from the store) as it is translated, and those the static
fixpoint left are swept on the first PacketIn that reaches the engine, so
the table is empty after every such PacketIn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ndlog.ast import Program, WILDCARD
from ..ndlog.engine import Engine
from ..ndlog.tuples import NDTuple, TableSchema
from ..sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from ..sdn.packets import IN_PORT_FIELD, Packet, header_getter
from ..sdn.switch import DROP_PORT, MATCH_FIELDS, FlowEntry


CONTROLLER_NODE = "C"


@lru_cache(maxsize=None)
def _packet_in_getter(fields: Tuple[str, ...]):
    """The compiled getter of one ``packet_in_fields`` (see
    :func:`repro.sdn.packets.header_getter`), built once; a name that is no
    header field is a ``KeyError`` every time it is asked for."""
    return header_getter(fields, strict=True)


@lru_cache(maxsize=None)
def _flow_entry_layout(layout: Tuple[str, ...]):
    """The compiled form of one ``flow_entry_layout``, built once: the flow
    tuple's arity, the ``(field name, column)`` of every match column sorted
    by name, and the column of ``out_port`` (the last one; ``None`` without
    one).  A name that is no match field, or a match field named twice, is
    a ``ValueError`` every time it is asked for."""
    match: Dict[str, int] = {}
    out_column: Optional[int] = None
    for column, name in enumerate(layout, start=1):
        if name == "out_port":
            out_column = column
        elif name not in MATCH_FIELDS:
            raise ValueError(f"unknown match field {name!r}")
        elif name in match:
            raise ValueError(f"match field {name!r} is named twice")
        else:
            match[name] = column
    return len(layout) + 1, tuple(sorted(match.items())), out_column


@dataclass(frozen=True)
class FieldMapping:
    """Mapping between packets and the controller program's tuples.

    Attributes:
        packet_in_fields: packet header fields (in order) that populate the
            ``PacketIn`` tuple after the leading ``(@C, Swi)`` columns.
        flow_entry_layout: names of the flow-entry table's columns after the
            leading switch column.  Each is either a packet header field (a
            match column) or the special name ``"out_port"`` (the action).
        packet_in_table / flow_table / packet_out_table: table names.
    """

    packet_in_fields: Tuple[str, ...] = ("dst_port",)
    flow_entry_layout: Tuple[str, ...] = ("dst_port", "out_port")
    packet_in_table: str = "PacketIn"
    flow_table: str = "FlowTable"
    packet_out_table: str = "PacketOut"

    def packet_in_tuple_from(self, switch_id: int, packet: Packet,
                             in_port: Optional[int] = None) -> NDTuple:
        values = packet.header_values + (
            in_port if in_port is not None else 0, None)
        # The values are a tuple already: build the NDTuple in C.
        return tuple.__new__(NDTuple, (
            self.packet_in_table,
            (CONTROLLER_NODE, switch_id)
            + _packet_in_getter(self.packet_in_fields)(values)))

    def packet_in_tuple(self, event: PacketInEvent) -> NDTuple:
        return self.packet_in_tuple_from(event.switch_id, event.packet,
                                         event.in_port)

    def flow_entry_from_tuple(self, tup: NDTuple, priority: int
                              ) -> Optional[Tuple[int, FlowEntry]]:
        """Translate a flow-entry tuple into (switch id, FlowEntry): ``None``
        for a tuple of another arity, a switch id or out-port that is no
        int, or a layout without ``out_port``.  A match column holding
        ``WILDCARD`` is left out of the match."""
        arity, match_columns, out_column = _flow_entry_layout(
            self.flow_entry_layout)
        values = tup.values
        if len(values) != arity or out_column is None:
            return None
        switch_id = values[0]
        out_port = values[out_column]
        if not isinstance(switch_id, int) or not isinstance(out_port, int):
            return None
        match = []
        for name, column in match_columns:
            value = values[column]
            if value != WILDCARD:
                match.append((name, value))
        return switch_id, FlowEntry(tuple(match), out_port, priority)

    def schemas(self) -> List[TableSchema]:
        packet_in = TableSchema(
            self.packet_in_table,
            ("C", "Swi") + tuple(self.packet_in_fields),
            persistent=False)
        flow = TableSchema(
            self.flow_table, ("Swi",) + tuple(self.flow_entry_layout))
        # No schema is registered for the packet-out table: repairs may
        # re-target rules with differently-shaped heads into it (Q4), and the
        # controller only reads the first (switch) and last (port) columns.
        return [packet_in, flow]


#: The mapping used by the Figure 2 load-balancer program.
FIGURE2_MAPPING = FieldMapping(
    packet_in_fields=("dst_port",),
    flow_entry_layout=("dst_port", "out_port"))

#: A five-tuple mapping used by the richer scenarios (Q2-Q5).
FIVE_TUPLE_MAPPING = FieldMapping(
    packet_in_fields=("src_ip", "dst_ip", "src_port", "dst_port", IN_PORT_FIELD,
                      "src_mac", "dst_mac"),
    flow_entry_layout=("src_ip", "dst_ip", "src_port", "dst_port", "out_port"))

#: Registry of the named mappings (used by tests and scenario definitions).
FIELD_MAPPINGS = {
    "figure2": FIGURE2_MAPPING,
    "five_tuple": FIVE_TUPLE_MAPPING,
}


def derivable_tables(program: Program, packet_in_table: str) -> Set[str]:
    """Tables whose contents can (transitively) depend on PacketIn tuples."""
    tainted = {packet_in_table}
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.head.table in tainted:
                continue
            if any(atom.table in tainted for atom in rule.body):
                tainted.add(rule.head.table)
                changed = True
    return tainted


def engine_batch_safe(program: Program, packet_in_table: str,
                      packet_out_table: str,
                      schemas: Dict[str, TableSchema]) -> bool:
    """Is what a PacketIn derives independent of the PacketIns before it?

    A conservative static check of the program: no rule derives PacketIns,
    joins two PacketIn-derivable tables (two packets, or their derivations,
    could meet — Q5's ``PacketIn`` ⋈ ``Learned``), reads the consumed
    packet-out table or a transient derivable table, and no derivable table
    has a primary key (key updates evict by arrival order).  When it holds,
    a PacketIn joins only tables no replay changes, so a PacketIn that
    derived nothing derives nothing again: the controller's empty-response
    memo rests on it.
    """
    tainted = derivable_tables(program, packet_in_table)
    for rule in program.rules:
        if rule.head.table == packet_in_table:
            return False
        tainted_atoms = sum(1 for atom in rule.body if atom.table in tainted)
        if tainted_atoms >= 2:
            return False
        for atom in rule.body:
            if atom.table == packet_out_table:
                return False
            schema = schemas.get(atom.table)
            if (atom.table != packet_in_table and atom.table in tainted
                    and schema is not None and not schema.persistent):
                return False
    for table in tainted:
        if table == packet_in_table:
            continue
        schema = schemas.get(table)
        if schema is not None and schema.primary_key:
            return False
    return True


class NDlogController(Controller):
    """Runs an NDlog program as a reactive SDN controller application."""

    name = "ndlog"

    def __init__(self, program: Program,
                 mapping: FieldMapping = FIGURE2_MAPPING,
                 static_tuples: Sequence[NDTuple] = (),
                 extra_schemas: Sequence[TableSchema] = (),
                 auto_packet_out: bool = True,
                 priority: int = 10):
        self.program = program
        self.mapping = mapping
        self.static_tuples = list(static_tuples)
        self.extra_schemas = list(extra_schemas)
        self.auto_packet_out = auto_packet_out
        self.priority = priority
        #: Cached :func:`engine_batch_safe` verdict (the program is fixed).
        self._engine_batch_safe: Optional[bool] = None
        #: PacketIn tuple values whose derivation is provably always empty,
        #: filled only while :attr:`engine_batch_safe` holds: under that
        #: analysis a PacketIn joins only tables that never change during
        #: replay, so an empty derivation stays empty for the lifetime of
        #: the controller — repeated misses (e.g. packets dropped on every
        #: repetition of a trace) skip the engine entirely.
        self._empty_responses: set = set()
        #: PacketIns that reached the engine (:attr:`Controller.version`).
        self.version = 0
        self.engine = self._build_engine()
        #: Did the static fixpoint leave packet-out tuples to sweep?
        self._static_packet_outs = bool(
            self.engine.database.count(mapping.packet_out_table))

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------

    def _build_engine(self) -> Engine:
        engine = Engine(self.program)
        for schema in self.mapping.schemas():
            engine.register_schema(schema)
        for schema in self.extra_schemas:
            engine.register_schema(schema)
        if self.static_tuples:
            engine.insert_many(list(self.static_tuples))
        return engine

    # ------------------------------------------------------------------
    # Controller interface
    # ------------------------------------------------------------------

    def on_start(self, network) -> List[object]:
        """Install flow entries for any flow tuples already in the engine.

        This is how "manually installed" flow entries (the InsertTuple repair
        of Table 2 candidate A) reach the switches: they are passed to the
        controller as static tuples and pushed proactively here.
        """
        messages: List[object] = []
        # In value order, not the engine's set order: entries of equal
        # priority are matched in installation order, so hash order here
        # would make the replay depend on PYTHONHASHSEED.
        for tup in self.flow_table_tuples():
            translated = self.mapping.flow_entry_from_tuple(tup, self.priority)
            if translated is not None:
                switch_id, entry = translated
                messages.append(FlowMod(switch_id, entry))
        return messages

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        """The control messages one PacketIn derives: a ``FlowMod`` per
        derived flow tuple, then a ``PacketOut`` per derived packet-out
        tuple, then — with ``auto_packet_out`` and no packet-out for the
        event's switch — one out of the first derived entry that matches
        the packet there and does not drop it."""
        switch_id, packet, in_port, _time = event
        mapping = self.mapping
        packet_in = mapping.packet_in_tuple_from(switch_id, packet, in_port)
        if packet_in.values in self._empty_responses:
            return []
        self.version += 1
        engine = self.engine
        derived = engine.insert(packet_in)
        if not derived and self.engine_batch_safe:
            self._empty_responses.add(packet_in.values)
        if self._static_packet_outs:
            self._sweep_static_packet_outs()
        messages: List[object] = []
        packet_outs: List[PacketOut] = []
        released = False            # a packet-out names the event's switch
        auto_port = None
        flow_table = mapping.flow_table
        packet_out_table = mapping.packet_out_table
        for tup in derived:
            table = tup.table
            if table == flow_table:
                translated = mapping.flow_entry_from_tuple(tup, self.priority)
                if translated is None:
                    continue
                to_switch, entry = translated
                messages.append(FlowMod(to_switch, entry))
                if (auto_port is None and to_switch == switch_id
                        and entry.out_port != DROP_PORT
                        and entry.matches(packet, in_port)):
                    auto_port = entry.out_port
            elif table == packet_out_table:
                engine.consume(tup)
                values = tup.values
                to_switch, port = values[0], values[-1]
                if isinstance(to_switch, int) and isinstance(port, int):
                    packet_outs.append(PacketOut(to_switch, port, packet))
                    if to_switch == switch_id:
                        released = True
        if self.auto_packet_out and not released and auto_port is not None:
            packet_outs.append(PacketOut(switch_id, auto_port, packet))
        messages += packet_outs
        return messages

    def _sweep_static_packet_outs(self):
        """Consume the packet-out tuples the static fixpoint derived: no
        PacketIn derived them, so none was consumed as a message."""
        engine = self.engine
        for stale in engine.tuples(self.mapping.packet_out_table):
            engine.consume(stale)
        self._static_packet_outs = False

    @property
    def engine_batch_safe(self) -> bool:
        """Do PacketIns of this program leave one another alone?  The gate
        of the empty-response memo (see :func:`engine_batch_safe`)."""
        if self._engine_batch_safe is None:
            schemas = self.engine.database.schemas()
            self._engine_batch_safe = engine_batch_safe(
                self.program, self.mapping.packet_in_table,
                self.mapping.packet_out_table, schemas)
        return self._engine_batch_safe

    # ------------------------------------------------------------------
    # Introspection used by the debugger
    # ------------------------------------------------------------------

    def flow_table_tuples(self) -> List[NDTuple]:
        """Flow tuples in value order (type name first, so a wildcard
        ``'*'`` next to an integer in the same column still compares)."""
        return sorted(self.engine.tuples(self.mapping.flow_table),
                      key=lambda t: [(type(v).__name__, v) for v in t.values])
