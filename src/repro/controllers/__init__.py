"""The declarative (RapidNet/NDlog) controller, the primary target of meta
provenance.

* :mod:`repro.controllers.ndlog_controller` — runs an NDlog program as the
  SDN controller application: one PacketIn, one engine insert, its derived
  tuples translated straight into ``FlowMod`` and ``PacketOut`` messages,
  and ``engine_batch_safe``, the static check behind its empty-response
  memo.

The paper's two other languages (Trema, Pyretic) serve Table 3 only; their
front ends live beside that scenario in :mod:`repro.scenarios.other_languages`.
"""

from .ndlog_controller import (
    FIELD_MAPPINGS,
    FIGURE2_MAPPING,
    FIVE_TUPLE_MAPPING,
    FieldMapping,
    IN_PORT_FIELD,
    NDlogController,
    engine_batch_safe,
)

__all__ = [
    "FIELD_MAPPINGS", "FIGURE2_MAPPING", "FIVE_TUPLE_MAPPING", "FieldMapping",
    "IN_PORT_FIELD", "NDlogController", "engine_batch_safe",
]
