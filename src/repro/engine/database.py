"""One database: catalog + storage + statistics + triggers.

A :class:`Database` owns its simulated disk and buffer pool (like an
Ingres database location), coordinates secondary-index maintenance on
DML, collects optimizer statistics, serves the optimizer's catalog view
(including synthesized geometry for *virtual* indexes) and the
executor's storage catalog, and hosts registered *virtual tables* —
the IMA mechanism that exposes in-memory monitor data over plain SQL.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.catalog.catalog import Catalog, TableEntry
from repro.catalog.schema import (
    Column,
    DataType,
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.catalog.statistics import (
    TableStatistics,
    collect_column_statistics,
)
from repro.clock import Clock, SystemClock
from repro.config import EngineConfig
from repro.errors import (
    CatalogError,
    StorageError,
    UnknownObjectError,
)
from repro.optimizer.interfaces import (
    IndexInfo,
    TableInfo,
    estimate_row_bytes,
    synthesize_index_info,
)
from repro.storage.btree import BTreeStorage
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.table_storage import TableStorage
from repro.engine.triggers import TriggerManager

VirtualTableProvider = Callable[..., list[tuple]]


class _VirtualTable(NamedTuple):
    provider: VirtualTableProvider
    row_count: Callable[[], int] | None
    floor_column: str | None


class _SecondaryIndex(NamedTuple):
    """What DML maintains of one real index of a table."""

    definition: IndexDef
    storage: BTreeStorage
    positions: tuple[int, ...]
    """Of the key columns in the table's rows."""

    def entry(self, rowid: int, row: tuple) -> tuple:
        """The index relation's row for ``row``: key values + rowid."""
        return tuple([row[p] for p in self.positions]) + (rowid,)


class Database:
    """Catalog, storage and physical-design operations for one database."""

    def __init__(self, name: str, config: EngineConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.name = name
        self.config = config or EngineConfig()
        self.clock = clock or SystemClock()
        self.disk = DiskManager(self.config.storage, self.clock)
        self.pool = BufferPool(self.disk, self.config.storage.buffer_pool_pages)
        self.catalog = Catalog()
        self.triggers = TriggerManager()
        self._storages: dict[str, TableStorage] = {}
        self._index_storages: dict[str, BTreeStorage] = {}
        self._secondary: dict[str, list[_SecondaryIndex]] = {}
        """Table name -> its real indexes, in creation order."""
        self._virtual_tables: dict[str, _VirtualTable] = {}
        self.schema_version = 0
        """Bumped on every DDL/statistics change; plan caches key their
        entries on it so stale plans are recompiled."""

    # -- DDL --------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     structure: StorageStructure = StorageStructure.HEAP,
                     main_pages: int | None = None) -> TableEntry:
        """Create a base table with the given storage structure."""
        self.schema_version += 1
        entry = self.catalog.create_table(schema, structure)
        self._storages[schema.name.lower()] = TableStorage(
            schema, self.disk, self.pool,
            structure=structure, main_pages=main_pages,
        )
        return entry

    def register_virtual_table(self, schema: TableSchema,
                               provider: VirtualTableProvider,
                               row_count: Callable[[], int] | None = None,
                               floor_column: str | None = None,
                               ) -> TableEntry:
        """Register an in-memory (IMA-style) virtual table.

        The provider is called at scan time and must return the current
        rows; no storage or disk access is involved.  ``row_count``
        answers the optimizer's "how many rows" without building them
        (default: the provider is called and its rows counted).  A
        table whose rows carry an ever-increasing integer column may
        name it as ``floor_column``: a scan filtered by a top-level
        ``floor_column > N`` then calls ``provider(N)``, which must
        return exactly the rows above ``N`` — a scan whose filter is
        that floor and nothing else takes the rows as they come;
        any other scan still evaluates its whole predicate on them.
        """
        self.schema_version += 1
        entry = self.catalog.create_table(schema, is_virtual=True)
        self._virtual_tables[schema.name.lower()] = _VirtualTable(
            provider, row_count, floor_column)
        return entry

    def drop_table(self, name: str) -> None:
        self.schema_version += 1
        entry = self.catalog.table(name)
        for index in list(self.catalog.indexes_on(name, include_virtual=True)):
            self.drop_index(index.name)
        self.catalog.drop_table(name)
        if entry.is_virtual:
            self._virtual_tables.pop(name.lower(), None)
            return
        self._secondary.pop(name.lower(), None)
        self._storages.pop(name.lower()).drop()

    def create_index(self, definition: IndexDef) -> IndexDef:
        """Create a secondary index; real indexes are built immediately."""
        entry = self.catalog.table(definition.table_name)
        if entry.is_virtual and not definition.virtual:
            raise CatalogError(
                f"cannot create a physical index on virtual table "
                f"{definition.table_name!r}"
            )
        # Virtual (what-if) indexes never affect executable plans, so
        # they don't invalidate plan caches.
        if not definition.virtual:
            self.schema_version += 1
        self.catalog.create_index(definition)
        if definition.virtual:
            return definition
        index_schema = self._index_schema(definition, entry.schema)
        storage = BTreeStorage(
            index_schema,
            definition.column_names,
            self.disk,
            self.pool,
            unique=definition.unique,
        )
        index = _SecondaryIndex(definition, storage, tuple(
            entry.schema.column_index(c) for c in definition.column_names))
        base = self._storages[definition.table_name.lower()]
        try:
            storage.bulk_load(
                (rowid, index.entry(rowid, row)) for rowid, row in base.scan())
        except StorageError:
            self.catalog.drop_index(definition.name)
            storage.drop()
            raise
        self._index_storages[definition.name.lower()] = storage
        self._secondary.setdefault(
            definition.table_name.lower(), []).append(index)
        return definition

    def drop_index(self, name: str) -> None:
        if not self.catalog.index(name).virtual:
            self.schema_version += 1
        table = self.catalog.drop_index(name).table_name.lower()
        storage = self._index_storages.pop(name.lower(), None)
        if storage is not None:
            self._secondary[table] = [index for index in self._secondary[table]
                                      if index.storage is not storage]
            storage.drop()

    def modify_table(self, name: str, structure: StorageStructure,
                     main_pages: int | None = None) -> None:
        """MODIFY <table> TO <structure>: rebuild; indexes stay valid
        because rowids are preserved."""
        entry = self.catalog.table(name)
        if entry.is_virtual:
            raise CatalogError(f"cannot MODIFY virtual table {name!r}")
        storage = self._storages[name.lower()]
        storage.modify_to(structure, main_pages)
        entry.structure = structure
        self.schema_version += 1

    # -- DML (single-row operations used by the session layer) -----------------

    def insert_row(self, table_name: str, row: tuple) -> int:
        """Insert a row, maintain indexes, fire triggers; returns rowid."""
        entry = self.catalog.table(table_name)
        if entry.is_virtual:
            raise CatalogError(f"cannot insert into virtual table {table_name!r}")
        storage = self._storages[table_name.lower()]
        checked = entry.schema.check_row(row)
        indexes = self._secondary.get(table_name.lower(), ())
        self._check_unique(indexes, checked)
        rowid = storage.insert_checked(checked)
        maintained: list[BTreeStorage] = []
        try:
            for index in indexes:
                index.storage.insert(rowid, index.entry(rowid, checked))
                maintained.append(index.storage)
        except StorageError:
            for index_storage in maintained:
                index_storage.delete(rowid)
            storage.delete(rowid)
            raise
        if self.triggers.triggers_on(table_name):
            self.triggers.fire_on_insert(table_name, checked,
                                         self.clock.now())
        return rowid

    def insert_rows(self, table_name: str, rows: Iterable[tuple]) -> int:
        """Insert ``rows`` in order; returns how many were inserted.

        The batch form of :meth:`insert_row` for append-mostly tables
        (the workload DB): every row is validated once and handed to
        the storage layer, which fills heap pages directly.  ``rows``
        is consumed lazily and an exception — a row that fails
        validation, one no page can hold, a failed write-back — leaves
        exactly the rows before it inserted.  Triggers fire once per
        inserted row, in order, after the rows are stored.  A table
        with secondary indexes takes one :meth:`insert_row` per row.
        """
        entry = self.catalog.table(table_name)
        if entry.is_virtual or self.catalog.indexes_on(table_name):
            inserted = 0
            for row in rows:
                self.insert_row(table_name, row)
                inserted += 1
            return inserted
        storage = self._storages[table_name.lower()]
        check_row = entry.schema.check_row
        if not self.triggers.triggers_on(table_name):
            return storage.insert_many_checked(map(check_row, rows))
        handed: list[tuple] = []

        def recorded() -> Iterator[tuple]:
            for row in rows:
                handed.append(check_row(row))
                yield handed[-1]

        before = storage.row_count
        try:
            return storage.insert_many_checked(recorded())
        finally:
            now = self.clock.now()
            for checked in handed[:storage.row_count - before]:
                self.triggers.fire_on_insert(table_name, checked, now)

    def delete_row(self, table_name: str, rowid: int) -> tuple:
        row = self.storage_for(table_name).delete(rowid)
        for index in self._secondary.get(table_name.lower(), ()):
            index.storage.delete(rowid)
        return row

    def update_row(self, table_name: str, rowid: int, row: tuple,
                   old_row: tuple | None = None) -> tuple:
        """Update in place; returns the previous row — ``old_row``
        where the caller read it already.  An index none of whose key
        columns changed is neither checked nor written."""
        entry = self.catalog.table(table_name)
        storage = self._storages[table_name.lower()]
        checked = entry.schema.check_row(row)
        if old_row is None:
            old_row = storage.fetch(rowid)
        moved = []
        for index in self._secondary.get(table_name.lower(), ()):
            new_entry = index.entry(rowid, checked)
            if new_entry != index.entry(rowid, old_row):
                moved.append((index, new_entry))
        self._check_unique([index for index, _ in moved], checked)
        storage.update_checked(rowid, checked, old_row)
        for index, new_entry in moved:
            index.storage.update(rowid, new_entry)
        return old_row

    def undo_insert(self, table_name: str, rowid: int) -> None:
        self.delete_row(table_name, rowid)

    def undo_delete(self, table_name: str, rowid: int, row: tuple) -> None:
        """Re-insert a deleted row under its original rowid."""
        self.storage_for(table_name).insert_with_rowid(rowid, row)
        for index in self._secondary.get(table_name.lower(), ()):
            index.storage.insert(rowid, index.entry(rowid, row))

    # -- statistics --------------------------------------------------------------

    def collect_statistics(self, table_name: str,
                           columns: Iterable[str] = (),
                           buckets: int = 20) -> TableStatistics:
        """Scan the table and build statistics (Ingres' optimizedb).

        With no explicit column list, all columns are analyzed.  Column
        statistics from earlier collections are kept unless re-analyzed.
        """
        entry = self.catalog.table(table_name)
        if entry.is_virtual:
            raise CatalogError(
                f"cannot collect statistics on virtual table {table_name!r}")
        storage = self._storages[table_name.lower()]
        schema = entry.schema
        wanted = tuple(columns) or schema.column_names
        for column in wanted:
            if not schema.has_column(column):
                raise UnknownObjectError(
                    f"table {table_name!r} has no column {column!r}")
        rows = [row for _rowid, row in storage.scan()]
        stats = TableStatistics(
            row_count=len(rows),
            page_count=storage.page_count,
            overflow_pages=storage.overflow_page_count,
            collected_at=self.clock.now(),
        )
        if entry.statistics is not None:
            stats.columns.update(entry.statistics.columns)
        for column in wanted:
            position = schema.column_index(column)
            stats.columns[column.lower()] = collect_column_statistics(
                column, (row[position] for row in rows), buckets)
        entry.statistics = stats
        storage.modifications_since_stats = 0
        self.schema_version += 1
        return stats

    # -- optimizer view (CatalogView protocol) ----------------------------------------

    def table_info(self, name: str) -> TableInfo:
        entry = self.catalog.table(name)
        if entry.is_virtual:
            virtual = self._virtual_tables[name.lower()]
            rows = virtual.row_count() if virtual.row_count is not None \
                else len(virtual.provider())
            return TableInfo(
                name=entry.schema.name,
                schema=entry.schema,
                structure=StorageStructure.HEAP,
                row_count=rows,
                page_count=max(1, rows // 50),
                overflow_pages=0,
                avg_row_bytes=estimate_row_bytes(entry.schema),
            )
        storage = self._storages[name.lower()]
        stats = entry.statistics
        if stats is not None:
            stats.rows_modified_since = storage.modifications_since_stats
        btree_height = 0
        btree_leaf_pages = 0
        hash_chain_pages = 0.0
        key_columns: tuple[str, ...] = ()
        if entry.structure is StorageStructure.BTREE:
            btree_height = storage.btree.height
            btree_leaf_pages = storage.btree.leaf_page_count
            key_columns = storage.key_columns
        elif entry.structure is StorageStructure.HASH:
            hash_chain_pages = storage.hash.average_chain_length
            key_columns = storage.key_columns
        return TableInfo(
            name=entry.schema.name,
            schema=entry.schema,
            structure=entry.structure,
            row_count=storage.row_count,
            page_count=storage.page_count,
            overflow_pages=storage.overflow_page_count,
            btree_height=btree_height,
            btree_leaf_pages=btree_leaf_pages,
            key_columns=key_columns,
            hash_chain_pages=hash_chain_pages,
            statistics=stats,
            avg_row_bytes=estimate_row_bytes(entry.schema),
        )

    def indexes_on(self, table_name: str,
                   include_virtual: bool = False) -> tuple[IndexInfo, ...]:
        result: list[IndexInfo] = []
        definitions = self.catalog.indexes_on(table_name,
                                              include_virtual=include_virtual)
        table: TableInfo | None = None
        for definition in definitions:
            if definition.virtual:
                if table is None:
                    table = self.table_info(table_name)
                result.append(synthesize_index_info(
                    definition, table, self.config.storage.page_size))
                continue
            storage = self._index_storages[definition.name.lower()]
            result.append(IndexInfo(
                definition=definition,
                height=storage.height,
                leaf_pages=storage.leaf_page_count,
                entry_count=storage.row_count,
            ))
        return tuple(result)

    # -- executor storage catalog (StorageCatalog protocol) ------------------------------

    def storage_for(self, table_name: str) -> TableStorage:
        try:
            return self._storages[table_name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"table {table_name!r} does not exist") from None

    def index_storage_for(self, index_name: str) -> BTreeStorage:
        try:
            return self._index_storages[index_name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"index {index_name!r} does not exist") from None

    def virtual_rows(self, table_name: str,
                     lower_bounds: Mapping[str, int] | None = None,
                     ) -> list[tuple]:
        """Current rows of a virtual table.  ``lower_bounds`` maps a
        column to an integer every wanted row exceeds in that column;
        the bound on the table's ``floor_column`` (if both exist) goes
        to the provider as a pre-filter."""
        try:
            virtual = self._virtual_tables[table_name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"virtual table {table_name!r} does not exist") from None
        if lower_bounds and virtual.floor_column in lower_bounds:
            return virtual.provider(lower_bounds[virtual.floor_column])
        return virtual.provider()

    def is_virtual_table(self, table_name: str) -> bool:
        return table_name.lower() in self._virtual_tables

    def virtual_floor_column(self, table_name: str) -> str | None:
        return self._virtual_tables[table_name.lower()].floor_column

    def column_types(self, table_name: str) -> Mapping[str, DataType]:
        """Declared column types of a stored or virtual table."""
        return self.catalog.table(table_name).schema.column_types

    # -- size accounting ---------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """On-disk footprint of this database (tables + indexes)."""
        return self.disk.total_bytes

    def table_bytes(self, table_name: str) -> int:
        return self.storage_for(table_name).data_bytes

    def index_bytes(self, index_name: str) -> int:
        storage = self.index_storage_for(index_name)
        return storage.page_count * self.disk.page_size

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _index_schema(definition: IndexDef,
                      table_schema: TableSchema) -> TableSchema:
        """Schema of the index relation: key columns + base rowid."""
        columns = tuple(
            Column(c.name, c.data_type, c.max_length, nullable=True)
            for c in (table_schema.column(name)
                      for name in definition.column_names)
        ) + (Column("tidp", DataType.INT, nullable=False),)
        return TableSchema(definition.name, columns)

    @staticmethod
    def _check_unique(indexes: Iterable[_SecondaryIndex], row: tuple) -> None:
        """Pre-check the unique ones of ``indexes`` — those ``row`` is
        about to get a new entry in — so a violation does not leave a
        half-maintained row behind.  A key with a NULL in it collides
        with nothing (NULLs are distinct, as in SQL)."""
        for index in indexes:
            if not index.definition.unique:
                continue
            key = index.entry(0, row)[:-1]
            if None in key:
                continue
            for _rowid in index.storage.seek(key):
                raise StorageError(
                    f"duplicate key {key!r} violates unique index "
                    f"{index.definition.name!r}"
                )
