"""The declarative (RapidNet/NDlog) controller, the primary target of meta
provenance, and the replay-batching analyses over its programs.

* :mod:`repro.controllers.ndlog_controller` — runs an NDlog program as the
  SDN controller application.
* :mod:`repro.controllers.batching` — which PacketIns may be replayed in
  batches, and the inertness probe.

The paper's two other languages (Trema, Pyretic) serve Table 3 only; their
front ends live beside that scenario in :mod:`repro.scenarios.other_languages`.
"""

from .batching import batch_replay_safe, engine_batch_safe, probe_exact
from .ndlog_controller import (
    FIELD_MAPPINGS,
    FIGURE2_MAPPING,
    FIVE_TUPLE_MAPPING,
    FieldMapping,
    IN_PORT_FIELD,
    NDlogController,
    PacketInResponse,
)

__all__ = [
    "FIELD_MAPPINGS", "FIGURE2_MAPPING", "FIVE_TUPLE_MAPPING", "FieldMapping",
    "IN_PORT_FIELD", "NDlogController", "PacketInResponse",
    "batch_replay_safe", "engine_batch_safe", "probe_exact",
]
