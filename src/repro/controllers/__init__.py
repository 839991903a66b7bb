"""Controller applications for the three languages covered by the paper.

* :mod:`repro.controllers.ndlog_controller` — the declarative (RapidNet/NDlog)
  controller, the primary target of meta provenance.
* :mod:`repro.controllers.imperative` — "RubyFlow", the Trema/Ruby substitute.
* :mod:`repro.controllers.policy` — the NetCore-style policy DSL, the Pyretic
  substitute.
"""

from .._lazy import lazy_exports
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

# The scenarios Q1-Q5 are NDlog programs; the two other front ends load
# when something (``scenarios/other_languages.py``) asks for them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "imperative": (
        "Assign", "BinExpr", "Env", "FieldRef", "Handler", "HashGet",
        "HashHas", "HashPut", "If", "ImperativeController",
        "ImperativeDeliveryGoal", "ImperativeRepair", "ImperativeRepairer",
        "InstallFlow", "Lit", "SendPacketOut", "VarRef"),
    "policy": (
        "Drop", "Flood", "Fwd", "LocatedPacket", "Match", "Mod", "Parallel",
        "Policy", "PolicyController", "PolicyDeliveryGoal", "PolicyRepair",
        "PolicyRepairer", "Restrict", "Sequential", "drop", "flood", "fwd",
        "match", "modify"),
})

__all__ = [
    "Assign", "BinExpr", "Env", "FieldRef", "Handler", "HashGet", "HashHas",
    "HashPut", "If", "ImperativeController", "ImperativeDeliveryGoal",
    "ImperativeRepair", "ImperativeRepairer", "InstallFlow", "Lit",
    "SendPacketOut", "VarRef",
    "FIELD_MAPPINGS", "FIGURE2_MAPPING", "FIVE_TUPLE_MAPPING", "FieldMapping",
    "IN_PORT_FIELD", "NDlogController", "PacketInResponse",
    "batch_replay_safe", "engine_batch_safe", "probe_exact",
    "Drop", "Flood", "Fwd", "LocatedPacket", "Match", "Mod", "Parallel",
    "Policy", "PolicyController", "PolicyDeliveryGoal", "PolicyRepair",
    "PolicyRepairer", "Restrict", "Sequential", "drop", "flood", "fwd",
    "match", "modify",
]
