"""The recording-engine Diagnose, kept as the oracle of the one quiet replay.

A repair's Diagnose replays the buggy program once, on an engine that keeps
no history, under the recorder (``NDlogScenario.recorded_run``).  Before
that it replayed on a *recording* engine — every INSERT/APPEAR/DERIVE event
logged, every derivation recorded, a packet log kept, no empty-response
memo — and read the history index off the event log and the final store,
then the backtest replayed the same program again for its baseline.  This module is that
path, as functions of the scenario and otherwise unchanged but for one fix:
the final store is read in store order (``base_in_order`` /
``derived_in_order``), never in set order, so the index does not depend on
``PYTHONHASHSEED``.  Never edit it to make a difference go away.

The controller here, :class:`RecordingNDlogController`, runs the one engine
that records, the oracle ``NaiveEngine`` (``tests/ndlog/reference_engine.py``),
which has the indexed engine's insert-time semantics.

Imported by module name (``tests/conftest.py`` puts ``tests/`` on
``sys.path``), like ``padded_programs``.
"""

from typing import List, Optional

from reference_engine import INSERT, DerivationRecord, NaiveEngine
from repro.controllers.ndlog_controller import NDlogController
from repro.meta.history import HistoryIndex
from repro.ndlog.tuples import NDTuple
from repro.sdn.controller import RecordingController
from repro.sdn.log import HistoricalLog
from repro.sdn.network import NetworkSimulator


class RecordingNDlogController(NDlogController):
    """An NDlog controller whose engine records every event and derivation.

    Its engine is a :class:`~reference_engine.NaiveEngine`, and every
    PacketIn reaches it: no empty-response memo, so the event log holds
    each insertion in trace order.
    """

    def _build_engine(self):
        engine = NaiveEngine(self.program)
        # A one-shot PacketOut leaves the store and nothing else (Engine.consume).
        engine.consume = engine.database.remove
        for schema in self.mapping.schemas() + self.extra_schemas:
            engine.register_schema(schema)
        if self.static_tuples:
            engine.insert_many(list(self.static_tuples))
        return engine

    @property
    def engine_batch_safe(self) -> bool:
        return False


def record_history(scenario, trace_limit: Optional[int] = None):
    """Run the buggy program over the trace, recording everything.

    Returns ``(controller, log, stats)``: the controller's engine holds the
    derivation history; the log holds the packet history.
    """
    topology = scenario.build_topology()
    log = HistoricalLog()
    controller = RecordingNDlogController(
        scenario.program, scenario.mapping,
        static_tuples=scenario.static_tuples,
        extra_schemas=scenario.extra_schemas,
        auto_packet_out=scenario.auto_packet_out)
    recording = RecordingController(controller, log=log)
    simulator = NetworkSimulator(topology, recording, log=log,
                                 require_packet_out=scenario.require_packet_out)
    trace = scenario.trace()
    if trace_limit is not None:
        trace = trace[:trace_limit]
    simulator.run_trace(trace)
    return controller, log, simulator.stats


def history_from_engine(engine, include_derived: bool = True) -> HistoryIndex:
    """An index of a recording engine's INSERT events, then its store."""
    index = HistoryIndex()
    for event in engine.events:
        if event.kind == INSERT:
            index.add(event.tuple)
    for tup in engine.database.base_in_order():
        index.add(tup)
    if include_derived:
        for tup in engine.database.derived_in_order():
            index.add(tup)
    return index


def history_index(scenario, trace_limit: Optional[int] = None) -> HistoryIndex:
    """The history index a recording-engine Diagnose built."""
    controller, _, _ = record_history(scenario, trace_limit=trace_limit)
    index = history_from_engine(controller.engine)
    for tup in scenario.static_tuples:
        index.add(tup)
    return index


def derivations_of(engine, tup: NDTuple) -> List[DerivationRecord]:
    """Every recorded derivation of ``tup``, in firing order."""
    return [record for record in engine.derivations if record.head == tup]
