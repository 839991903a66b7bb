"""The :class:`RepairJob` wire: a whole repair run as one job.

A ``RepairJob`` wraps a full :class:`~repro.api.config.RepairConfig`, so a
worker runs the entire Diagnose → Generate → Backtest → Rank
pipeline and ships the ranked report back.  Its wire is told from a
backtest job wire (:func:`repro.distrib.jobs.build_job_wire`) by ``"kind":
"repair"``, on which :func:`repro.distrib.jobs.build_runtime` dispatches,
and carries ``candidate_count: 1`` — the run is its one work item — for the
coordinator's queue bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict

from ..api.config import RepairConfig
from ..wire import Wire, WireError

#: The ``kind`` discriminator that routes a job wire to
#: :class:`~repro.service.runtime.RepairJobRuntime` on the worker.
REPAIR_JOB_KIND = "repair"


class RepairJobError(WireError):
    """Raised for malformed repair job wires."""


@dataclass
class RepairJob(Wire):
    """One whole repair run, addressed to a tenant, as a wire object."""

    wire_name, wire_error = "repair job", RepairJobError

    #: Daemon-assigned session identifier (unique per daemon).
    session_id: str
    #: The full declarative run description (must carry a ScenarioSpec —
    #: a live scenario object cannot cross the wire).
    config: RepairConfig
    #: Fair-share scheduling key; every submission belongs to a tenant.
    tenant: str = "default"
    #: Daemon wall-clock at submission (0.0 = unknown).
    submitted_unix: float = 0.0

    def __post_init__(self):
        if self.config.scenario is None:
            raise RepairJobError(
                "repair job config has no ScenarioSpec; only fully "
                "declarative configs can cross the wire")

    def to_wire(self) -> Dict[str, object]:
        return {"kind": REPAIR_JOB_KIND, **super().to_wire(),
                "candidate_count": 1}

    @classmethod
    def from_wire(cls, wire) -> "RepairJob":
        """The fields, behind the header: kind ``repair``, one work item."""
        fields = dict(wire) if isinstance(wire, dict) else {}
        header = fields.pop("kind", None), fields.pop("candidate_count", None)
        if header != (REPAIR_JOB_KIND, 1) or type(header[1]) is not int:
            raise RepairJobError(f"not a repair job wire: (kind, "
                                 f"candidate_count) is {header!r}")
        return super().from_wire(fields)


def scenario_digest(job_wire: Dict) -> str:
    """Cache key for the worker's :class:`RuntimeCache`: the scenario only.

    Two repair jobs with different candidate budgets or acceptance knobs
    still replay the same scenario, so they share the cached scenario
    object (and its memoized trace/topology) on a persistent worker —
    only the spec participates in the digest.
    """
    config_wire = job_wire.get("config") or {}
    basis = json.dumps({"kind": "repair-scenario",
                        "spec": config_wire.get("scenario")},
                       sort_keys=True, default=str)
    return hashlib.sha256(basis.encode("utf-8")).hexdigest()
