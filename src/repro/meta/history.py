"""Historical data index used by the meta provenance explorer.

The explorer needs two things from the network's history: (a) the base
tuples that existed (or arrived) during the time window of the diagnostic
query — e.g. which ``PacketIn`` events switch S3 reported — and (b) the set
of "interesting" constant values observed per table column, which the
explorer tries as a repaired constant's new value (this is how repairs such
as ``Sip < 6  ->  Sip < 16`` arise: 16 is a value seen in the history).

A :class:`HistoryIndex` is built from an :class:`~repro.ndlog.engine.Engine`
(:meth:`HistoryIndex.from_engine`: its event log and current database) or
from a plain iterable of tuples (:meth:`HistoryIndex.from_tuples`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..ndlog.engine import Engine
from ..ndlog.events import INSERT
from ..ndlog.tuples import NDTuple


class HistoryIndex:
    """Index of historical tuples by table and by (table, column)."""

    def __init__(self, tuples: Optional[Iterable[NDTuple]] = None):
        self._by_table: Dict[str, List[NDTuple]] = defaultdict(list)
        self._seen: Set[NDTuple] = set()
        self.lookup_count = 0
        for tup in tuples or ():
            self.add(tup)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_engine(cls, engine: Engine, include_derived: bool = True) -> "HistoryIndex":
        """Build an index from an engine's event log and current database."""
        index = cls()
        for event in engine.events:
            if event.kind == INSERT:
                index.add(event.tuple)
        for tup in engine.database.base_tuples():
            index.add(tup)
        if include_derived:
            for tup in engine.database.derived_tuples():
                index.add(tup)
        return index

    @classmethod
    def from_tuples(cls, tuples: Iterable[NDTuple]) -> "HistoryIndex":
        return cls(tuples)

    def add(self, tup: NDTuple):
        if tup in self._seen:
            return
        self._seen.add(tup)
        self._by_table[tup.table].append(tup)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tables(self) -> Set[str]:
        return set(self._by_table)

    def tuples_of(self, table: str) -> List[NDTuple]:
        """All historical tuples of a table (each counted once)."""
        self.lookup_count += 1
        return list(self._by_table.get(table, ()))

    def count(self, table: Optional[str] = None) -> int:
        if table is not None:
            return len(self._by_table.get(table, ()))
        return len(self._seen)

    def column_values(self, table: str, column: int) -> List[object]:
        """Distinct values observed in one column of a table, in first-seen order."""
        seen = set()
        out = []
        for tup in self._by_table.get(table, ()):
            if column < len(tup.values):
                value = tup.values[column]
                if value not in seen:
                    seen.add(value)
                    out.append(value)
        return out

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
