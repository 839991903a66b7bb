"""Tuples, table schemas and per-node databases for the NDlog engine.

In NDlog the state of every node (switch, controller, server) is a set of
tables containing tuples.  Tuples are either *base* tuples, inserted from the
outside (configuration, packets arriving at border switches), or *derived*
tuples computed by rules.  This module provides the storage layer; the
evaluation logic lives in :mod:`repro.ndlog.engine`.

Storage details that the evaluation layer relies on:

* A tuple's base/derived status is kept as a pair of *flags* rather than two
  overlapping sets: a tuple inserted from the outside and later re-derived by
  a rule is both base and derived at once, and dropping one flag never evicts
  the tuple while the other flag remains.
* A table, and each bucket of its indexes, is one live dict used as an
  ordered set (tuple -> ``None``): a join enumerates a bucket in the order
  its tuples entered the store, never in hash order, so what a rule derives
  from two tuples of one bucket — two equal-priority flow entries, say —
  comes out in the same order under every ``PYTHONHASHSEED``.  The flag
  dict is in store order too: :meth:`Database.base_in_order` exposes it so
  the engine's recompute seeds in that order, and ``Engine.remove`` walks
  it to report what disappeared.
* Secondary hash indexes keyed on ``(column, value)`` let joins probe the
  tuples matching an already-bound variable instead of scanning (and
  copying) the whole table.  Indexes are *lazy*: a column's buckets are
  materialised from the live table the first time a probe constrains that
  column, and only materialised columns are maintained afterwards — tables
  that are only ever scanned (or probed on one column) never pay for
  indexing the rest.
* Every replayed PacketIn and every tuple it derives passes through
  :meth:`Database.insert`, so an insert pays only for what its table has:
  the schema is read once (arity is ``len(fields)`` against
  ``len(values)``), the primary-key eviction runs only for a table with a
  key, freshness is one store with the table's size compared before and
  after, and the secondary buckets are touched only for a table with a
  materialised column.  :meth:`Database.remove` is the mirror image
  (``pop`` plus a size check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Collection, Dict, List, NamedTuple, Optional, Sequence,
                    Set, Tuple as PyTuple)

from .errors import SchemaError


#: Flag bits used by :class:`Database` to track how a tuple entered the store.
BASE_FLAG = 1
DERIVED_FLAG = 2


@dataclass(frozen=True)
class TableSchema:
    """Schema of an NDlog table.

    Attributes:
        name: table name.
        fields: column names (the first column is conventionally the location).
        primary_key: names of columns forming the primary key.  When a new
            tuple shares its primary key with an existing one, the old tuple
            is replaced (NDlog "update" semantics).  An empty primary key
            means the whole tuple is the key (pure set semantics).
        persistent: ``True`` for materialised state tables, ``False`` for
            transient event tables (e.g. ``PacketIn``) which are consumed
            after triggering derivations.
        location_index: index of the location column.
    """

    name: str
    fields: PyTuple[str, ...]
    primary_key: PyTuple[str, ...] = ()
    persistent: bool = True
    location_index: int = 0

    def __post_init__(self):
        for column in self.primary_key:
            if column not in self.fields:
                raise SchemaError(
                    f"primary key column {column!r} of table {self.name!r} "
                    f"is not one of its fields {tuple(self.fields)}"
                )

    @property
    def arity(self):
        return len(self.fields)

    def key_indexes(self):
        """Column indexes of the primary key (all columns if no key given)."""
        if not self.primary_key:
            return tuple(range(len(self.fields)))
        return tuple(self.fields.index(name) for name in self.primary_key)


class _NDTupleFields(NamedTuple):
    table: str
    values: PyTuple


class NDTuple(_NDTupleFields):
    """An immutable NDlog tuple: a table name plus a vector of values.

    The node on which the tuple resides is carried in the value at the
    schema's location index (by convention index 0).

    An ``NDTuple`` *is* the Python tuple ``(table, values)``: it is hashed
    on every index probe and set membership test in the engine's hot loop,
    and as a tuple its hashing, equality and field reads run in C, with
    ``hash(t) == hash((t.table, t.values))``.  Code that has a tuple of
    values in hand (compiled rule plans, the controller's PacketIn) builds
    one with ``tuple.__new__(NDTuple, (table, values))``, skipping the one
    Python frame of :meth:`__new__`, which turns list values into a tuple.
    """

    __slots__ = ()

    def __new__(cls, table: str, values):
        if type(values) is not tuple:
            values = tuple(values)
        return tuple.__new__(cls, (table, values))

    @property
    def arity(self):
        return len(self.values)

    def key(self, schema: Optional[TableSchema] = None):
        """Primary-key projection used for update semantics."""
        if schema is None or not schema.primary_key:
            return self.values
        return tuple(self.values[i] for i in schema.key_indexes())

    def __str__(self):
        rendered = ", ".join(repr(v) if isinstance(v, str) else str(v) for v in self.values)
        return f"{self.table}({rendered})"


def make_tuple(table, *values):
    """Convenience constructor mirroring NDlog surface syntax."""
    return NDTuple(table, tuple(values))


class Database:
    """Multiset-free storage of tuples grouped by table.

    The database distinguishes base tuples (inserted) from derived tuples
    (computed by rules) so that provenance and repair code can tell them
    apart; a tuple can carry both flags at once.  Tuples are globally stored;
    location is just a value, matching the simulator's "omniscient" view used
    for offline analysis.
    """

    def __init__(self, schemas: Optional[Dict[str, TableSchema]] = None):
        self._schemas: Dict[str, TableSchema] = dict(schemas or {})
        #: Names of non-persistent tables, so the engine's post-fixpoint
        #: transient sweep can skip the schema lookups when there are none.
        self.transient_tables: Set[str] = {
            name for name, schema in self._schemas.items()
            if not schema.persistent}
        self._tables: Dict[str, Dict[NDTuple, None]] = {}
        #: Per-tuple BASE_FLAG / DERIVED_FLAG bits.
        self._flags: Dict[NDTuple, int] = {}
        #: Per-table secondary indexes: (column, value) -> ordered set of
        #: tuples.
        #: Only the columns in ``_indexed_columns[table]`` are materialised;
        #: others are built on first probe (see :meth:`_ensure_column`).
        self._indexes: Dict[str, Dict[PyTuple[int, object],
                                      Dict[NDTuple, None]]] = {}
        self._indexed_columns: Dict[str, Set[int]] = {}
        #: Monotone count of lazily materialised secondary indexes
        #: (:meth:`_ensure_column` actually building buckets) — sampled by
        #: the observability layer; never rewound.
        self.index_materializations = 0
        #: A :class:`weakref.WeakMethod` of the function called with each
        #: tuple evicted by a primary-key update, so an engine can keep its
        #: firing dedup consistent.  Weak, so that an engine and
        #: its database form no reference cycle.
        self.eviction_hook = None

    # -- schema management -------------------------------------------------

    def register_schema(self, schema: TableSchema):
        existing = self._schemas.get(schema.name)
        if existing is not None and existing != schema:
            raise SchemaError(
                f"conflicting schema registration for table {schema.name!r}"
            )
        self._schemas[schema.name] = schema
        if not schema.persistent:
            self.transient_tables.add(schema.name)
        else:
            self.transient_tables.discard(schema.name)

    def schemas(self) -> Dict[str, TableSchema]:
        return dict(self._schemas)

    # -- queries -----------------------------------------------------------

    def tables(self):
        return set(self._tables)

    def tuples(self, table) -> Set[NDTuple]:
        """Return a copy of the set of tuples currently stored for ``table``."""
        return set(self._tables.get(table, ()))

    def _ensure_column(self, table, column) -> None:
        """Materialise the ``(column, value)`` buckets of one table column."""
        indexed = self._indexed_columns.setdefault(table, set())
        if column in indexed:
            return
        indexed.add(column)
        self.index_materializations += 1
        index = self._indexes.setdefault(table, {})
        for tup in self._tables.get(table, ()):
            values = tup.values
            if column < len(values):
                index.setdefault((column, values[column]), {})[tup] = None

    def lookup(self, table, column, value) -> Collection[NDTuple]:
        """Tuples of ``table`` whose ``column`` holds exactly ``value``.

        Returns the live index bucket (do not mutate).  Comparison is strict
        equality — wildcard values are ordinary values at the storage layer.
        """
        indexed = self._indexed_columns.get(table)
        if indexed is None or column not in indexed:
            self._ensure_column(table, column)
        index = self._indexes.get(table)
        if index is None:
            return _EMPTY_SET
        return index.get((column, value), _EMPTY_SET)

    def candidates(self, table, constraints: Sequence[PyTuple[int, object]]
                   ) -> Collection[NDTuple]:
        """Smallest candidate set for a join probe.

        ``constraints`` is a sequence of ``(column, value)`` equality
        constraints; the smallest matching index bucket is returned (the full
        table when no constraint is given).  The result is a live bucket — it
        over-approximates the match, so callers still verify each tuple.
        """
        bucket = self._tables.get(table)
        if not bucket:
            return _EMPTY_SET
        if not constraints:
            return bucket
        indexed = self._indexed_columns.get(table)
        if indexed is None:
            indexed = self._indexed_columns.setdefault(table, set())
        index = self._indexes.get(table)
        if index is None:
            index = self._indexes.setdefault(table, {})
        best = bucket
        for key in constraints:
            if key[0] not in indexed:
                self._ensure_column(table, key[0])
            found = index.get(key)
            if not found:
                return _EMPTY_SET
            if len(found) < len(best):
                best = found
        return best

    def base_tuples(self) -> Set[NDTuple]:
        return set(self.base_in_order())

    def base_in_order(self) -> List[NDTuple]:
        """Base tuples in the order they entered the store."""
        return [t for t, flags in self._flags.items() if flags & BASE_FLAG]

    def derived_tuples(self) -> Set[NDTuple]:
        return set(self.derived_in_order())

    def derived_in_order(self) -> List[NDTuple]:
        """Derived tuples in the order they entered the store."""
        return [t for t, flags in self._flags.items() if flags & DERIVED_FLAG]

    def contains(self, tup: NDTuple) -> bool:
        return tup in self._tables.get(tup.table, _EMPTY_SET)

    def is_base(self, tup: NDTuple) -> bool:
        return bool(self._flags.get(tup, 0) & BASE_FLAG)

    def is_derived(self, tup: NDTuple) -> bool:
        return bool(self._flags.get(tup, 0) & DERIVED_FLAG)

    def count(self, table=None) -> int:
        if table is not None:
            return len(self._tables.get(table, ()))
        return sum(len(t) for t in self._tables.values())

    # -- mutation ----------------------------------------------------------

    def _evict_key_conflicts(self, tup: NDTuple, schema: TableSchema):
        """Remove tuples sharing the primary key (NDlog update semantics);
        only called for a schema that has one."""
        key_columns = schema.key_indexes()
        key = tup.key(schema)
        # Probe the index on the first key column instead of scanning.
        candidates = self.lookup(tup.table, key_columns[0], tup.values[key_columns[0]])
        conflicting = [other for other in candidates
                       if other != tup and other.key(schema) == key]
        hook = None if self.eviction_hook is None else self.eviction_hook()
        for other in conflicting:
            self.remove(other)
            if hook is not None:
                hook(other)

    def _index_add(self, tup: NDTuple):
        """Register a fresh tuple in the table's materialised buckets."""
        table = tup.table
        indexed = self._indexed_columns.get(table)
        if indexed:
            index = self._indexes[table]
            values = tup.values
            for column in indexed:
                if column < len(values):
                    index.setdefault((column, values[column]), {})[tup] = None

    def _index_discard(self, tup: NDTuple):
        """Drop a tuple from the table's materialised buckets."""
        table = tup.table
        indexed = self._indexed_columns.get(table)
        if indexed:
            index = self._indexes[table]
            values = tup.values
            for column in indexed:
                if column >= len(values):
                    continue
                key = (column, values[column])
                bucket = index.get(key)
                if bucket is not None:
                    bucket.pop(tup, None)
                    if not bucket:
                        del index[key]

    def insert(self, tup: NDTuple, derived=False):
        """Insert a tuple; returns ``True`` if it was not already present."""
        table = tup.table
        schema = self._schemas.get(table)
        if schema is not None:
            if len(schema.fields) != len(tup.values):
                raise SchemaError(
                    f"tuple {tup} has arity {len(tup.values)}, schema of "
                    f"{table!r} expects {len(schema.fields)}"
                )
            if schema.primary_key:
                self._evict_key_conflicts(tup, schema)
        bucket = self._tables.get(table)
        if bucket is None:
            bucket = self._tables[table] = {}
        flag = DERIVED_FLAG if derived else BASE_FLAG
        size = len(bucket)
        bucket[tup] = None
        if len(bucket) != size:
            if table in self._indexed_columns:
                self._index_add(tup)
            self._flags[tup] = flag
            return True
        old = self._flags.get(tup, 0)
        new = old | flag
        if new != old:
            self._flags[tup] = new
        return False

    def remove(self, tup: NDTuple):
        """Remove a tuple entirely (both flags); returns ``True`` if present."""
        bucket = self._tables.get(tup.table)
        if bucket is None:
            return False
        size = len(bucket)
        bucket.pop(tup, None)
        if len(bucket) == size:
            return False
        self._flags.pop(tup, None)
        if tup.table in self._indexed_columns:
            self._index_discard(tup)
        return True

    def clear_base_flag(self, tup: NDTuple) -> bool:
        """Drop the base flag; the tuple survives while still derived.

        Returns ``True`` if the tuple left the database (it carried no other
        flag), ``False`` if it remains as a derived tuple or was absent.
        """
        flags = self._flags.get(tup)
        if flags is None or not flags & BASE_FLAG:
            return False
        remaining = flags & ~BASE_FLAG
        if remaining:
            self._flags[tup] = remaining
            return False
        return self.remove(tup)

    def clear_derived_flag(self, tup: NDTuple) -> bool:
        """Drop the derived flag; the tuple survives while still base.

        Returns ``True`` if the tuple left the database, ``False`` otherwise.
        """
        flags = self._flags.get(tup)
        if flags is None or not flags & DERIVED_FLAG:
            return False
        remaining = flags & ~DERIVED_FLAG
        if remaining:
            self._flags[tup] = remaining
            return False
        return self.remove(tup)

    def __len__(self):
        return self.count()


_EMPTY_SET: Set[NDTuple] = frozenset()
