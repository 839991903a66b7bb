"""Repair-as-a-service: whole repair runs on the fabric, many tenants.

The fourth layer of the reproduction's scale-out story.  PR 3 built the
fabric, PR 5 made a repair run one wire object, PR 9 made the fabric
fault-tolerant; this package turns the pieces into a long-lived service:

* :mod:`~repro.service.wire` — the :class:`RepairJob` wire format: a
  whole Diagnose → Generate → Backtest → Rank run as one fabric job;
* :mod:`~repro.service.runtime` — :class:`RepairJobRuntime`, the
  worker-side interpreter (scenario-cached, event-streaming);
* :mod:`~repro.service.daemon` — :class:`RepairServiceDaemon`, the
  multi-tenant coordinator: fair-share scheduling over a supervised
  worker fleet, per-job retry/quarantine/deadlines, live
  per-session event streams;
* :mod:`~repro.service.http` — the stdlib HTTP/JSON front door
  (``repro serve``);
* :mod:`~repro.service.client` — the urllib client behind
  ``repro submit`` / ``repro status``.
"""

from .client import ClientError, ServiceClient
from .daemon import (RepairServiceDaemon, ServiceError, ServiceUnavailable,
                     SessionRecord, TERMINAL_STATES)
from .http import ServiceHTTPServer
from .runtime import RepairJobRuntime
from .wire import REPAIR_JOB_KIND, RepairJob, RepairJobError, scenario_digest

__all__ = [
    "REPAIR_JOB_KIND", "ClientError", "RepairJob", "RepairJobError",
    "RepairJobRuntime", "RepairServiceDaemon", "ServiceClient",
    "ServiceError", "ServiceHTTPServer", "ServiceUnavailable",
    "SessionRecord", "TERMINAL_STATES", "scenario_digest",
]
