"""The catalog manager: tables, indexes and their physical metadata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.catalog.schema import (
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.catalog.statistics import TableStatistics
from repro.errors import DuplicateObjectError, UnknownObjectError


@dataclass
class TableEntry:
    """Catalog entry for one table: schema + physical metadata.

    The statistics slot is ``None`` until statistics are collected
    ("optimizedb" in Ingres) — the analyzer's missing-statistics rule
    keys off exactly this.
    """

    schema: TableSchema
    structure: StorageStructure = StorageStructure.HEAP
    statistics: TableStatistics | None = None
    is_virtual: bool = False
    """Virtual tables (IMA) are served from memory, not from storage."""


class Catalog:
    """Name-keyed registry of tables and indexes for one database."""

    def __init__(self) -> None:
        self._tables: dict[str, TableEntry] = {}
        self._indexes: dict[str, IndexDef] = {}
        self._table_indexes: dict[str, list[str]] = {}

    # -- tables ----------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     structure: StorageStructure = StorageStructure.HEAP,
                     is_virtual: bool = False) -> TableEntry:
        name = schema.name.lower()
        if name in self._tables:
            raise DuplicateObjectError(f"table {schema.name!r} already exists")
        entry = TableEntry(schema=schema, structure=structure,
                           is_virtual=is_virtual)
        self._tables[name] = entry
        self._table_indexes[name] = []
        return entry

    def drop_table(self, name: str) -> TableEntry:
        key = name.lower()
        entry = self._tables.pop(key, None)
        if entry is None:
            raise UnknownObjectError(f"table {name!r} does not exist")
        for index_name in self._table_indexes.pop(key, []):
            self._indexes.pop(index_name, None)
        return entry

    def table(self, name: str) -> TableEntry:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Iterator[TableEntry]:
        return iter(self._tables.values())

    # -- indexes ---------------------------------------------------------

    def create_index(self, index: IndexDef) -> IndexDef:
        name = index.name.lower()
        table_name = index.table_name.lower()
        if name in self._indexes:
            raise DuplicateObjectError(f"index {index.name!r} already exists")
        entry = self.table(table_name)
        for column in index.column_names:
            if not entry.schema.has_column(column):
                raise UnknownObjectError(
                    f"index {index.name!r}: table {index.table_name!r} "
                    f"has no column {column!r}"
                )
        self._indexes[name] = index
        self._table_indexes[table_name].append(name)
        return index

    def drop_index(self, name: str) -> IndexDef:
        key = name.lower()
        index = self._indexes.pop(key, None)
        if index is None:
            raise UnknownObjectError(f"index {name!r} does not exist")
        table_key = index.table_name.lower()
        if table_key in self._table_indexes:
            self._table_indexes[table_key] = [
                n for n in self._table_indexes[table_key] if n != key
            ]
        return index

    def index(self, name: str) -> IndexDef:
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise UnknownObjectError(f"index {name!r} does not exist") from None

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def indexes_on(self, table_name: str,
                   include_virtual: bool = False) -> tuple[IndexDef, ...]:
        """All (real, and optionally virtual) indexes on a table."""
        names = self._table_indexes.get(table_name.lower(), [])
        found = (self._indexes[n] for n in names)
        if include_virtual:
            return tuple(found)
        return tuple(i for i in found if not i.virtual)

    def all_indexes(self) -> tuple[IndexDef, ...]:
        return tuple(self._indexes.values())
