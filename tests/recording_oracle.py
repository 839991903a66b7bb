"""The recording-engine Diagnose, kept as the oracle of the one quiet replay.

A repair's Diagnose replays the buggy program once on a quiet engine under
the recorder (``NDlogScenario.recorded_run``).  Before that it replayed on a
*recording* engine — every INSERT/APPEAR/DERIVE event logged, every
derivation recorded, a packet log kept, no empty-response memo — and read
the history index off the event log and the final store, then the backtest
replayed the same program again for its baseline.  This module is that
path, as functions of the scenario and otherwise unchanged but for one fix:
the final store is read in store order (``base_in_order`` /
``derived_in_order``), never in set order, so the index does not depend on
``PYTHONHASHSEED``.  Never edit it to make a difference go away.

Imported by module name (``tests/conftest.py`` puts ``tests/`` on
``sys.path``), like ``padded_programs``.
"""

from typing import List, Optional

from repro.meta.history import HistoryIndex
from repro.ndlog.events import INSERT, DerivationRecord
from repro.ndlog.tuples import NDTuple
from repro.sdn.controller import RecordingController
from repro.sdn.log import HistoricalLog
from repro.sdn.network import NetworkSimulator


def record_history(scenario, trace_limit: Optional[int] = None):
    """Run the buggy program over the trace, recording everything.

    Returns ``(controller, log, stats)``: the controller's engine holds the
    derivation history; the log holds the packet history.
    """
    topology = scenario.build_topology()
    log = HistoricalLog()
    controller = scenario.build_controller(record_events=True)
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
