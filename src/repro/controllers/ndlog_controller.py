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
column — no dict, no sort and no validation per entry.  A replayed PacketIn
thus costs the rule firing it triggers plus a fixed few calls of
translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ndlog.ast import Program, WILDCARD
from ..ndlog.engine import Engine
from ..ndlog.tuples import NDTuple, TableSchema
from ..sdn.controller import Controller, FlowMod, PacketInEvent, PacketOut
from ..sdn.packets import IN_PORT_FIELD, Packet, header_getter
from ..sdn.switch import DROP_PORT, MATCH_FIELDS, FlowEntry
from . import batching


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
        return NDTuple(
            self.packet_in_table,
            (CONTROLLER_NODE, switch_id)
            + _packet_in_getter(self.packet_in_fields)(values))

    def packet_in_tuple(self, event: PacketInEvent) -> NDTuple:
        return self.packet_in_tuple_from(event.switch_id, event.packet,
                                         event.in_port)

    def flow_entry_from_tuple(self, tup: NDTuple, priority: int,
                              tags: Tuple[str, ...] = ()) -> Optional[Tuple[int, FlowEntry]]:
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
        return switch_id, FlowEntry(match=tuple(match), out_port=out_port,
                                    priority=priority, tags=tuple(tags))

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


@dataclass(frozen=True)
class PacketInResponse:
    """One event's controller response in packet-agnostic template form.

    ``FlowMod`` messages are fully determined by the derived tuples, but
    ``PacketOut`` messages carry the triggering packet — batched replay may
    serve one precomputed response to several packets sharing a PacketIn
    tuple key, so packet-outs are stored as ``(switch_id, port)`` specs and
    materialised per packet by :meth:`messages_for`.
    """

    flow_mods: Tuple[FlowMod, ...]
    packet_out_specs: Tuple[Tuple[int, int], ...]
    #: Whether the event derived anything at all.  An empty derivation leaves
    #: the engine untouched, so the identical response may be replayed for
    #: later same-key events without consulting the engine again.
    derived_any: bool

    def messages_for(self, packet: Packet) -> List[object]:
        messages: List[object] = list(self.flow_mods)
        for switch_id, port in self.packet_out_specs:
            messages.append(PacketOut(switch_id, port, packet))
        return messages


class _BatchReplayAdapter:
    """Hooks a batch-safe NDlog controller into batched trace replay."""

    def __init__(self, controller: "NDlogController"):
        self.controller = controller

    def key(self, switch_id: int, packet: Packet,
            in_port: Optional[int]) -> Tuple:
        """The PacketIn tuple key that fully determines the response."""
        return self.controller.mapping.packet_in_tuple_from(
            switch_id, packet, in_port).values

    def handle(self, events: Sequence[PacketInEvent]) -> List[PacketInResponse]:
        return self.controller.handle_packet_in_batch(events)

    def is_inert(self, key: Tuple) -> bool:
        """Is an empty response *provably* correct for this key, with no
        engine involvement?  Lets multi-switch walks answer downstream
        misses without breaking out of the shared batch call."""
        return self.controller.packet_in_provably_inert(key)


class NDlogController(Controller):
    """Runs an NDlog program as a reactive SDN controller application."""

    name = "ndlog"

    def __init__(self, program: Program,
                 mapping: FieldMapping = FIGURE2_MAPPING,
                 static_tuples: Sequence[NDTuple] = (),
                 extra_schemas: Sequence[TableSchema] = (),
                 auto_packet_out: bool = True,
                 priority: int = 10,
                 tags: Tuple[str, ...] = (),
                 record_events: bool = True):
        self.program = program
        self.mapping = mapping
        self.static_tuples = list(static_tuples)
        self.extra_schemas = list(extra_schemas)
        self.auto_packet_out = auto_packet_out
        self.priority = priority
        self.tags = tags
        self.record_events = record_events
        #: Cached batch-safety verdicts (program and mapping are fixed).
        self._engine_batch_safe: Optional[bool] = None
        self._batch_replay_safe: Optional[bool] = None
        #: PacketIn tuple values whose derivation is provably always empty.
        #: Under the engine-batch-safe analysis a PacketIn joins only tables
        #: that never change during replay, so an empty derivation stays
        #: empty for the lifetime of the controller — repeated misses (e.g.
        #: packets dropped on every repetition of a trace) skip the engine
        #: entirely.  Disabled while recording events, where each insertion
        #: must reach the historical log.
        self._empty_responses: set = set()
        #: Lazily-built static inertness probe (see
        #: :class:`repro.controllers.batching.PacketInInertProbe`).
        self._inert_probe = None
        self.engine = self._build_engine()

    # ------------------------------------------------------------------
    # Engine lifecycle
    # ------------------------------------------------------------------

    def _build_engine(self) -> Engine:
        engine = Engine(self.program, record_events=self.record_events)
        for schema in self.mapping.schemas():
            engine.register_schema(schema)
        for schema in self.extra_schemas:
            engine.register_schema(schema)
        if self.static_tuples:
            engine.insert_many(list(self.static_tuples))
        return engine

    def rebind_program(self, program: Program):
        """Point the controller at a program its engine already evaluates.

        Warm candidate switching swaps the *engine's* rules in place
        (:meth:`Engine.swap_program` after a checkpoint restore);
        this drops every per-program cache — batch-safety verdicts, the
        empty-response memo, the inertness probe — so they are re-derived
        for the new rule set.  The engine itself is left untouched.
        """
        self.program = program
        self._engine_batch_safe = None
        self._batch_replay_safe = None
        self._empty_responses = set()
        self._inert_probe = None

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
            translated = self.mapping.flow_entry_from_tuple(
                tup, self.priority, self.tags)
            if translated is not None:
                switch_id, entry = translated
                messages.append(FlowMod(switch_id, entry))
        return messages

    def handle_packet_in(self, event: PacketInEvent) -> List[object]:
        packet_in = self.mapping.packet_in_tuple_from(
            event.switch_id, event.packet, event.in_port)
        if packet_in.values in self._empty_responses:
            return []
        derived = self.engine.insert(packet_in)
        if not derived and self._may_memoise_empty():
            self._empty_responses.add(packet_in.values)
        response = self._translate_derived(event, derived)
        self._consume_packet_outs()
        return response.messages_for(event.packet)

    def handle_packet_in_batch(self, events: Sequence[PacketInEvent]
                               ) -> List["PacketInResponse"]:
        """Handle a burst of PacketIn events, sharing one engine fixpoint.

        Equivalent to calling :meth:`handle_packet_in` for each event in
        order.  When the program is batch-order-independent (see
        :mod:`repro.controllers.batching`), all first-occurrence PacketIn
        tuples are inserted with a single :meth:`Engine.insert_batch`
        fixpoint; repeated tuples and unsafe programs fall back to per-event
        insertion, so the responses are always bit-identical to the
        sequential ones.
        """
        responses: List[Optional[PacketInResponse]] = [None] * len(events)
        tuples = [self.mapping.packet_in_tuple(event) for event in events]
        empty = PacketInResponse(flow_mods=(), packet_out_specs=(),
                                 derived_any=False)
        first_occurrence: Dict[Tuple, int] = {}
        pending: List[int] = []
        for index, tup in enumerate(tuples):
            if tup.values in self._empty_responses:
                responses[index] = empty
            elif tup.values not in first_occurrence:
                first_occurrence[tup.values] = index
                pending.append(index)
        if self.engine_batch_safe and len(pending) > 1:
            derived_lists = self.engine.insert_batch(
                [tuples[i] for i in pending],
                consumed_tables=(self.mapping.packet_out_table,))
            memoise = self._may_memoise_empty()
            for index, derived in zip(pending, derived_lists):
                if not derived and memoise:
                    self._empty_responses.add(tuples[index].values)
                responses[index] = self._translate_derived(events[index], derived)
            self._consume_packet_outs()
            pending = []
        for index in range(len(events)):
            if responses[index] is None:
                derived = self.engine.insert(tuples[index])
                if not derived and self._may_memoise_empty():
                    self._empty_responses.add(tuples[index].values)
                responses[index] = self._translate_derived(events[index],
                                                           derived)
                self._consume_packet_outs()
        return responses

    def _translate_derived(self, event: PacketInEvent,
                           derived: Sequence[NDTuple]) -> "PacketInResponse":
        """Turn one event's newly-derived tuples into control messages."""
        flow_mods: List[FlowMod] = []
        packet_out_specs: List[Tuple[int, int]] = []
        packet_out_for_switch = False
        matched_ports: List[int] = []
        for tup in derived:
            if tup.table == self.mapping.flow_table:
                translated = self.mapping.flow_entry_from_tuple(
                    tup, self.priority, self.tags)
                if translated is None:
                    continue
                switch_id, entry = translated
                flow_mods.append(FlowMod(switch_id, entry))
                if switch_id == event.switch_id and entry.matches(event.packet,
                                                                  event.in_port):
                    matched_ports.append(entry.out_port)
            elif tup.table == self.mapping.packet_out_table:
                switch_id, port = tup.values[0], tup.values[-1]
                if isinstance(switch_id, int) and isinstance(port, int):
                    packet_out_specs.append((switch_id, port))
                    if switch_id == event.switch_id:
                        packet_out_for_switch = True
        if self.auto_packet_out and not packet_out_for_switch:
            for port in matched_ports:
                if port != DROP_PORT:
                    packet_out_specs.append((event.switch_id, port))
                    break
        return PacketInResponse(flow_mods=tuple(flow_mods),
                                packet_out_specs=tuple(packet_out_specs),
                                derived_any=bool(derived))

    def packet_in_provably_inert(self, values: Tuple) -> bool:
        """May a PacketIn with this tuple key be answered with an empty
        response without consulting the engine?

        ``True`` only when the static analysis proves no rule can fire for
        the key (see :class:`repro.controllers.batching.PacketInInertProbe`)
        — then a live insertion would leave the engine untouched (the
        PacketIn tuple is transient) and return no derivations, so skipping
        it is behaviour-preserving.  Requires a transient PacketIn schema
        and is only consulted on replay paths (``record_events=False``);
        recording controllers must log every insertion.
        """
        if self.record_events:
            return False
        schema = self.engine.database.schema(self.mapping.packet_in_table)
        if schema is None or schema.persistent:
            return False
        if self._inert_probe is None:
            self._inert_probe = batching.PacketInInertProbe(
                self.program, self.mapping.packet_in_table,
                schemas=self.engine.database.schemas(),
                static_tuples=self.static_tuples,
                flow_table=self.mapping.flow_table,
                closed_world=True)
        return self._inert_probe.inert(values)

    def probe_counters(self) -> Dict[str, int]:
        """Hit/miss counters of the static inertness probe (zero until the
        probe is first consulted); reported through ``warm_engine_stats``."""
        if self._inert_probe is None:
            return {"inert_probe_hits": 0, "inert_probe_misses": 0}
        return {"inert_probe_hits": self._inert_probe.hits,
                "inert_probe_misses": self._inert_probe.misses}

    def _may_memoise_empty(self) -> bool:
        """Empty responses are permanent only when PacketIns join nothing
        that replay can change, and skipping inserts must not starve the
        event log consumed by provenance."""
        return not self.record_events and self.engine_batch_safe

    def _consume_packet_outs(self):
        # Packet-out tuples are one-shot messages: consume them so they do
        # not accumulate in the engine database between PacketIns.
        engine = self.engine
        table = self.mapping.packet_out_table
        if not engine.database.count(table):
            return
        for stale in engine.tuples(table):
            engine.consume(stale)

    # ------------------------------------------------------------------
    # Batched-replay protocol (consumed by NetworkSimulator.run_trace)
    # ------------------------------------------------------------------

    @property
    def engine_batch_safe(self) -> bool:
        """May distinct PacketIn tuples share one engine fixpoint?

        Joint fixpoints keep a *different event log* than sequential
        insertion (``Engine.insert_batch``), so recording controllers —
        whose logs feed provenance — always answer ``False`` and fall back
        to per-event insertion.
        """
        if self.record_events:
            return False
        if self._engine_batch_safe is None:
            schemas = self.engine.database.schemas()
            self._engine_batch_safe = batching.engine_batch_safe(
                self.program, self.mapping.packet_in_table,
                self.mapping.packet_out_table, schemas)
        return self._engine_batch_safe

    def batch_replay_adapter(self) -> Optional["_BatchReplayAdapter"]:
        """Adapter for batched trace replay, or ``None`` when the program's
        responses could interact across a burst (then replay is per-packet)."""
        if self.record_events:
            return None
        if self._batch_replay_safe is None:
            schemas = self.engine.database.schemas()
            self._batch_replay_safe = batching.batch_replay_safe(
                self.program, self.mapping, schemas,
                static_tuples=self.static_tuples)
        if not self._batch_replay_safe:
            return None
        return _BatchReplayAdapter(self)

    # ------------------------------------------------------------------
    # Introspection used by the debugger
    # ------------------------------------------------------------------

    def flow_table_tuples(self) -> List[NDTuple]:
        """Flow tuples in value order (type name first, so a wildcard
        ``'*'`` next to an integer in the same column still compares)."""
        return sorted(self.engine.tuples(self.mapping.flow_table),
                      key=lambda t: [(type(v).__name__, v) for v in t.values])
