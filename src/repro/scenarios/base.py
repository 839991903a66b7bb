"""Scenario infrastructure for the five case studies of Section 5.3.

A :class:`NDlogScenario` bundles everything one diagnostic case needs:

* the (buggy) controller program and its packet/tuple field mapping,
* static configuration tuples (e.g. the load-balancer table),
* a topology factory and a deterministic traffic trace,
* the symptom, expressed as a missing-tuple goal for the meta provenance
  explorer, and an effectiveness predicate for backtesting,
* bookkeeping used by the experiment harness (reference repair, name, ...).

Scenarios are pure descriptions: they build fresh controllers on demand, and
their topology once, as a *template* (:meth:`NDlogScenario.template`) that
the trace factory reads, Diagnose's replay and the backtester replay
replicas of — each a replica with flow tables of its own
(:meth:`~repro.sdn.topology.Topology.replica`), so runs never contaminate
each other or the template.  A trace builder builds one repetition and repeats
it: the ``(switch, Packet)`` pairs are frozen values, shared by every
repetition.

Diagnosis starts from what the runtime records (Sections 4.3 and 5.4): the
PacketIns the switches raised and the controller's answers.
:meth:`NDlogScenario.recorded_run` replays the buggy program over the trace
once, under the recorder
(:class:`~repro.sdn.controller.RecordingController`), and that one run
yields both inputs of a repair: the :class:`~repro.meta.history.HistoryIndex`
the explorer searches and the baseline traffic statistics the backtest judges
every candidate against.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..controllers.ndlog_controller import FieldMapping, NDlogController
from ..meta.explorer import MissingTupleGoal
from ..meta.history import HistoryIndex
from ..ndlog.ast import Program
from ..ndlog.parser import parse_program
from ..ndlog.tuples import NDTuple, TableSchema
from ..sdn.controller import RecordingController
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


@dataclass
class RecordedRun:
    """One replay of the buggy program over the (cut) trace, as recorded.

    ``history`` is what the explorer searches; ``baseline`` and ``seconds``
    are the backtest baseline: the traffic statistics every candidate is
    judged against, and the replay's wall time, which estimates one
    candidate's replay for the fabric's min-work gate and item deadline.
    ``trace_limit`` is the cut both were taken under.
    """

    history: HistoryIndex
    baseline: TrafficStats
    seconds: float
    trace_limit: Optional[int] = None


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
        self._trace: Optional[Tuple[Tuple[int, Packet], ...]] = None
        self._template: Optional[Topology] = None

    # ------------------------------------------------------------------
    # Environment construction
    # ------------------------------------------------------------------

    def build_topology(self) -> Topology:
        """A fresh topology from the factory."""
        return self.topology_factory()

    def template(self) -> Topology:
        """The scenario's topology, built once.  Nothing writes it: the
        trace factory reads its hosts, and every replay runs on a
        :meth:`~repro.sdn.topology.Topology.replica` of it."""
        if self._template is None:
            self._template = self.build_topology()
        return self._template

    def build_controller(self, program: Optional[Program] = None,
                         extra_tuples: Sequence[NDTuple] = ()
                         ) -> NDlogController:
        return NDlogController(
            program=program if program is not None else self.program,
            mapping=self.mapping,
            static_tuples=self.static_tuples + list(extra_tuples),
            extra_schemas=self.extra_schemas,
            auto_packet_out=self.auto_packet_out)

    def schemas(self) -> List[TableSchema]:
        return list(self.mapping.schemas()) + list(self.extra_schemas)

    def packet_in_tuple(self, switch_id: int, packet: Packet,
                        in_port: Optional[int] = None) -> NDTuple:
        return self.mapping.packet_in_tuple_from(switch_id, packet, in_port)

    def trace(self) -> Tuple[Tuple[int, Packet], ...]:
        """The trace, built once; every call returns that same tuple."""
        if self._trace is None:
            self._trace = tuple(self.trace_factory(self.template()))
        return self._trace

    # ------------------------------------------------------------------
    # Diagnosis inputs
    # ------------------------------------------------------------------

    def goal(self) -> MissingTupleGoal:
        return self.symptom.goal()

    def recorded_run(self, trace_limit: Optional[int] = None) -> RecordedRun:
        """Replay the buggy program over the trace once, under the recorder.

        The controller's engine keeps no history, and the controller answers
        a repeated PacketIn that derived nothing from its memo.  The
        recorder around it sees every PacketIn, so the history holds, in
        this order and each tuple once: the controller's static tuples, the
        PacketIn tuple of every recorded event, the final store's base and
        then derived tuples in store order, and the scenario's static tuples
        — the tuples an engine that logs every insert would have logged,
        then its store.  ``seconds`` times the replay alone, not the index.
        """
        started = _time.perf_counter()
        controller = self.build_controller()
        recorder = RecordingController(controller)
        simulator = NetworkSimulator(self.template().replica(), recorder,
                                     require_packet_out=self.require_packet_out,
                                     record_ingress=False)
        trace = self.trace()
        if trace_limit is not None:
            trace = trace[:trace_limit]
        simulator.run_trace(trace)
        seconds = _time.perf_counter() - started
        database = controller.engine.database
        packet_in = self.mapping.packet_in_tuple
        history = HistoryIndex(chain(
            controller.static_tuples,
            map(packet_in, recorder.packet_ins),
            database.base_in_order(),
            database.derived_in_order(),
            self.static_tuples))
        return RecordedRun(history=history, baseline=simulator.stats,
                           seconds=seconds, trace_limit=trace_limit)

    def history_index(self, trace_limit: Optional[int] = None) -> HistoryIndex:
        """Historical tuples for the meta provenance explorer (the history
        of :meth:`recorded_run`)."""
        return self.recorded_run(trace_limit=trace_limit).history

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
