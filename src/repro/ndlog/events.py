"""Event records emitted by the NDlog engine.

The engine keeps a chronological log of everything that happens to tuples:
insertions and deletions of base tuples, derivations and underivations,
appearances/disappearances in the database, and cross-node message traffic.
The classical provenance reader (``ProvenanceQuery``, kept with its suite in
``tests/provenance/classical_provenance.py``) turns this history into the
provenance graph of Section 3.1 of the paper.

With incremental deletion (see :mod:`repro.ndlog.engine`), a retraction
emits DELETE/DISAPPEAR for the retracted base tuple and UNDERIVE/DISAPPEAR
for every derived tuple of its downstream cone that lost its last support;
tuples that reappear through an alternative derivation are re-inserted
silently, exactly like the recompute-based evaluator behaved.  A derived
tuple re-appearing after deletion logs a fresh APPEAR even when its
DerivationRecord was already in the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .tuples import NDTuple


# Event kind constants.  They intentionally mirror the vertex names used by
# the paper (INSERT / DELETE / DERIVE / UNDERIVE / APPEAR / DISAPPEAR /
# SEND / RECEIVE).
INSERT = "INSERT"
DELETE = "DELETE"
DERIVE = "DERIVE"
UNDERIVE = "UNDERIVE"
APPEAR = "APPEAR"
DISAPPEAR = "DISAPPEAR"
SEND = "SEND"
RECEIVE = "RECEIVE"


@dataclass(frozen=True)
class DerivationRecord:
    """A single successful rule firing.

    Attributes:
        rule: name of the rule that fired.
        head: the derived head tuple.
        body: the body tuples that satisfied the rule, in body-atom order.
        bindings: the variable assignment under which the rule fired.
        time: logical timestamp of the derivation.
        node: node at which the head tuple was produced.
    """

    rule: str
    head: NDTuple
    body: Tuple[NDTuple, ...]
    bindings: Tuple[Tuple[str, object], ...]
    time: int
    node: object = None

    def bindings_dict(self) -> Dict[str, object]:
        return dict(self.bindings)


@dataclass(frozen=True)
class EngineEvent:
    """One entry of the engine's chronological event log."""

    kind: str
    time: int
    tuple: NDTuple
    node: object = None
    rule: Optional[str] = None
    derivation: Optional[DerivationRecord] = None
    source: object = None
    destination: object = None

    def __str__(self):
        extra = f" via {self.rule}" if self.rule else ""
        return f"[{self.time}] {self.kind} {self.tuple}{extra}"
