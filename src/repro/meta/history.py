"""Historical data index used by the meta provenance explorer.

The explorer needs two things from the network's history: (a) the base
tuples that existed (or arrived) during the time window of the diagnostic
query — e.g. which ``PacketIn`` events switch S3 reported — and (b) the set
of "interesting" constant values observed, which the explorer tries as a
repaired constant's new value (this is how repairs such as
``Sip < 6  ->  Sip < 16`` arise: 16 is a value seen in the history).

A :class:`HistoryIndex` is a plain index over tuples given in order; each
tuple counts once, at its first appearance.  A repair builds it from the
one recorded replay of the buggy program
(:meth:`repro.scenarios.base.NDlogScenario.recorded_run`): the tuples that
entered the controller — static configuration, then the PacketIn of every
recorded event — and then the run's final store in store order.  Order is
part of the value (it is the order :meth:`HistoryIndex.matching` returns
and :meth:`HistoryIndex.all_values` seeds the explorer's constants in), so
nothing here iterates a set.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set

from ..ndlog.tuples import NDTuple


class HistoryIndex:
    """Index of historical tuples by table, each in first-seen order."""

    def __init__(self, tuples: Optional[Iterable[NDTuple]] = None):
        self._by_table: Dict[str, List[NDTuple]] = defaultdict(list)
        self._seen: Set[NDTuple] = set()
        self.lookup_count = 0
        for tup in tuples or ():
            self.add(tup)

    def add(self, tup: NDTuple):
        if tup in self._seen:
            return
        self._seen.add(tup)
        self._by_table[tup.table].append(tup)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tuples_of(self, table: str) -> List[NDTuple]:
        """All historical tuples of a table (each counted once)."""
        self.lookup_count += 1
        return list(self._by_table.get(table, ()))

    def count(self, table: Optional[str] = None) -> int:
        if table is not None:
            return len(self._by_table.get(table, ()))
        return len(self._seen)

    def all_values(self) -> List[object]:
        """Every distinct value in the history (candidate-pool seeding)."""
        seen = set()
        out = []
        for tuples in self._by_table.values():
            for tup in tuples:
                for value in tup.values:
                    if value not in seen:
                        seen.add(value)
                        out.append(value)
        return out

    def matching(self, table: str, constraints: Dict[int, object]) -> List[NDTuple]:
        """Tuples of ``table`` whose columns agree with ``constraints``."""
        out = []
        for tup in self._by_table.get(table, ()):
            if all(column < len(tup.values) and tup.values[column] == value
                   for column, value in constraints.items()):
                out.append(tup)
        self.lookup_count += 1
        return out

    def __len__(self):
        return len(self._seen)
