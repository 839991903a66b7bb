"""Worker-side execution of a :class:`~repro.service.wire.RepairJob`.

:class:`RepairJobRuntime` is the repair-kind sibling of
:class:`repro.distrib.jobs.JobRuntime`: the worker loop builds one per
job frame (via :func:`repro.distrib.jobs.build_runtime`) and calls
``evaluate(0)`` — a repair job has exactly one item, the run itself.

Inside ``evaluate`` the runtime reconstructs the declarative
:class:`~repro.api.config.RepairConfig`, normalizes its scheduling knobs
(the *worker* is the fabric's unit of parallelism, so the run executes
serially in-process — ``transport=None, workers=1`` — and never nests a
second fabric inside a worker), and drives a full
:class:`~repro.api.session.RepairSession`.  Every
:class:`~repro.events.SessionEvent` the session publishes is forwarded
through the event sink installed by the worker loop, which mirrors the
JSONL event wire onto ``{"type": "event"}`` coordinator frames — the
daemon stitches them into per-session ordered streams.

Scenario objects are cached across jobs in the worker's
:class:`~repro.distrib.jobs.RuntimeCache`, keyed by
:func:`~repro.service.wire.scenario_digest`: repeated submissions against
the same scenario skip the topology/trace rebuild, exactly like repeated
backtest jobs do.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..distrib.jobs import DistribError, RuntimeCache, _RuntimeEntry
from ..bus import EventBus
from .wire import RepairJob, scenario_digest

#: Signature of the sink the worker loop installs: one event wire dict in,
#: one coordinator frame out.
EventSink = Callable[[Dict[str, object]], None]


class RepairJobRuntime:
    """Run one whole repair session on a worker, streaming its events."""

    def __init__(self, job_wire: Dict, cache: Optional[RuntimeCache] = None):
        self.job = RepairJob.from_wire(job_wire)
        self._cache = cache
        self._digest = scenario_digest(job_wire)
        self._sink: Optional[EventSink] = None

    def set_event_sink(self, sink: Optional[EventSink]) -> None:
        """Install the frame-forwarding event sink (worker loop hook)."""
        self._sink = sink

    def __len__(self) -> int:
        return 1                          # the run itself is the only item

    # ------------------------------------------------------------------

    def _scenario(self):
        """The (possibly cached) scenario object for this job's spec."""
        if self._cache is None:
            return self.job.config.build_scenario()
        entry = self._cache.get(self._digest)
        if entry is None:
            scenario = self.job.config.build_scenario()
            # Repair runs build their own backtester per session; the
            # cache entry only carries the scenario (trace included).
            entry = _RuntimeEntry(scenario, None)
            self._cache.put(self._digest, entry)
        return entry.scenario

    def evaluate(self, index: int, candidate_wire=None) -> Dict[str, object]:
        """Run the whole pipeline; the outcome is the JSON-able report."""
        if index != 0:
            raise DistribError(
                f"repair jobs have exactly one item; got index {index}")
        # Local import: the session facade imports the distrib package,
        # and build_runtime imports this module lazily for the same reason.
        from ..api.session import RepairSession
        config = self.job.config
        if config.transport is not None or config.workers != 1 \
                or config.transport_options:
            # Scheduling is the daemon's business: one worker == one unit
            # of parallelism, and a worker must never nest its own fabric.
            config = config.with_updates(transport=None, workers=1,
                                         transport_options={})
        events = EventBus(keep_history=False)
        sink = self._sink
        if sink is not None:
            events.subscribe(lambda event: sink(event.to_wire()))
        session = RepairSession(config, scenario=self._scenario(),
                                events=events)
        report = session.run()
        return {
            "session_id": self.job.session_id,
            "tenant": self.job.tenant,
            "scenario": report.scenario_name,
            "report": report.to_wire(),
            "stage_seconds": dict(session.stage_seconds),
        }
