"""Scenario infrastructure for the five case studies of Section 5.3.

A :class:`NDlogScenario` bundles everything one diagnostic case needs:

* the (buggy) controller program and its packet/tuple field mapping,
* static configuration tuples (e.g. the load-balancer table),
* a topology factory and a deterministic traffic trace,
* the symptom, expressed as a missing-tuple goal for the meta provenance
  explorer, and an effectiveness predicate for backtesting,
* bookkeeping used by the experiment harness (reference repair, name, ...).

Scenarios are pure descriptions: they build fresh topologies and controllers
on demand, so backtesting runs never contaminate each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..controllers.ndlog_controller import FieldMapping, NDlogController
from ..meta.explorer import MissingTupleGoal
from ..meta.history import HistoryIndex
from ..ndlog.ast import Program
from ..ndlog.parser import parse_program
from ..ndlog.tuples import NDTuple, TableSchema
from ..sdn.controller import RecordingController
from ..sdn.log import HistoricalLog
from ..sdn.network import NetworkSimulator, TrafficStats
from ..sdn.packets import Packet
from ..sdn.topology import Topology


@dataclass
class Symptom:
    """The operator's description of the problem (one row of Table 1)."""

    description: str
    table: str
    constraints: Dict[int, object]
    node: object = None

    def goal(self) -> MissingTupleGoal:
        return MissingTupleGoal.create(self.table, self.constraints,
                                       node=self.node,
                                       description=self.description)


class NDlogScenario:
    """A reproducible diagnostic scenario for the NDlog controller."""

    def __init__(self, name: str, description: str, program_source: str,
                 mapping: FieldMapping,
                 topology_factory: Callable[[], Topology],
                 trace_factory: Callable[[Topology], List[Tuple[int, Packet]]],
                 symptom: Symptom,
                 static_tuples: Sequence[NDTuple] = (),
                 extra_schemas: Sequence[TableSchema] = (),
                 effective_predicate: Optional[
                     Callable[[Iterable[Tuple[Packet, int]]], bool]] = None,
                 target_host: Optional[int] = None,
                 auto_packet_out: bool = True,
                 require_packet_out: bool = True,
                 reference_repair: str = "",
                 ks_threshold: float = 0.05):
        self.name = name
        self.description = description
        self.program_source = program_source
        self.program = parse_program(program_source, name=name)
        self.mapping = mapping
        self.topology_factory = topology_factory
        self.trace_factory = trace_factory
        self.symptom = symptom
        self.static_tuples = list(static_tuples)
        self.extra_schemas = list(extra_schemas)
        self.effective_predicate = effective_predicate
        self.target_host = target_host
        self.auto_packet_out = auto_packet_out
        self.require_packet_out = require_packet_out
        self.reference_repair = reference_repair
        self.ks_threshold = ks_threshold
        #: Spawn-safe handle (set by ``build_scenario`` / ``ScenarioSpec``):
        #: names this scenario in the builder registry so worker processes
        #: can reconstruct it without shipping closures.  ``None`` for
        #: hand-assembled scenarios, which are then only evaluated in the
        #: calling process.
        self.spec = None
        self._trace: Optional[List[Tuple[int, Packet]]] = None

    # ------------------------------------------------------------------
    # Environment construction
    # ------------------------------------------------------------------

    def build_topology(self) -> Topology:
        return self.topology_factory()

    def build_controller(self, program: Optional[Program] = None,
                         extra_tuples: Sequence[NDTuple] = (),
                         removed_tuples: Sequence[NDTuple] = (),
                         tags: Tuple[str, ...] = (),
                         record_events: bool = False) -> NDlogController:
        removed = set(removed_tuples)
        static = [t for t in self.static_tuples if t not in removed]
        static += [t for t in extra_tuples if t not in removed]
        return NDlogController(
            program=program if program is not None else self.program,
            mapping=self.mapping,
            static_tuples=static,
            extra_schemas=self.extra_schemas,
            auto_packet_out=self.auto_packet_out,
            tags=tags,
            record_events=record_events)

    def schemas(self) -> List[TableSchema]:
        return list(self.mapping.schemas()) + list(self.extra_schemas)

    def packet_in_tuple(self, switch_id: int, packet: Packet,
                        in_port: Optional[int] = None) -> NDTuple:
        return self.mapping.packet_in_tuple_from(switch_id, packet, in_port)

    def trace(self) -> List[Tuple[int, Packet]]:
        if self._trace is None:
            self._trace = list(self.trace_factory(self.build_topology()))
        return list(self._trace)

    # ------------------------------------------------------------------
    # Diagnosis inputs
    # ------------------------------------------------------------------

    def goal(self) -> MissingTupleGoal:
        return self.symptom.goal()

    def record_history(self, trace_limit: Optional[int] = None):
        """Run the buggy program over the trace, recording everything.

        Returns ``(controller, log, stats)``: the controller's engine holds
        the derivation history; the log holds the packet history.  This is
        the "diagnostic information we already record for the provenance"
        that meta provenance and backtesting consume.
        """
        topology = self.build_topology()
        log = HistoricalLog()
        controller = self.build_controller(record_events=True)
        recording = RecordingController(controller, log=log)
        simulator = NetworkSimulator(topology, recording, log=log,
                                     require_packet_out=self.require_packet_out)
        trace = self.trace()
        if trace_limit is not None:
            trace = trace[:trace_limit]
        simulator.run_trace(trace)
        return controller, log, simulator.stats

    def history_index(self, trace_limit: Optional[int] = None) -> HistoryIndex:
        """Historical base tuples for the meta provenance explorer."""
        controller, _, _ = self.record_history(trace_limit=trace_limit)
        index = HistoryIndex.from_engine(controller.engine)
        for tup in self.static_tuples:
            index.add(tup)
        return index

    # ------------------------------------------------------------------
    # Backtesting hooks
    # ------------------------------------------------------------------

    def is_effective(self, stats: TrafficStats) -> bool:
        """Did a repaired run fix the symptom?

        A predicate makes one pass over ``(packet, destination)`` pairs:
        this scenario's trace beside ``stats.destinations``, which covers
        the replayed prefix of that trace (all of it unless a trace limit
        cut it).
        """
        if self.effective_predicate is not None:
            return self.effective_predicate(
                zip((packet for _switch, packet in self.trace()),
                    stats.destinations))
        if self.target_host is not None:
            return stats.delivered_to(self.target_host) > 0
        return stats.delivery_ratio() > 0

    def __str__(self):
        return f"Scenario {self.name}: {self.description}"
