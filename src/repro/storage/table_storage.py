"""Per-table storage facade: one table, one current storage structure.

Owns the rowid counter and delegates to the active structure (heap,
B-Tree or hash).  ``modify_to`` implements Ingres' ``MODIFY <table> TO
<structure>``: the table is rebuilt into a fresh structure, which also
compacts away heap holes and overflow chains.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Collection, Iterable, Iterator

from repro.catalog.schema import StorageStructure, TableSchema
from repro.errors import StorageError
from repro.storage.btree import BTreeStorage
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.hash import HashStorage
from repro.storage.heap import HeapStorage


class TableStorage:
    """Physical storage of one table behind a structure-agnostic API."""

    def __init__(self, schema: TableSchema, disk: DiskManager,
                 pool: BufferPool,
                 structure: StorageStructure = StorageStructure.HEAP,
                 main_pages: int | None = None) -> None:
        self.schema = schema
        self._disk = disk
        self._pool = pool
        self._next_rowid = 1
        self.modifications_since_stats = 0
        self._main_pages = main_pages or 8
        self._store: HeapStorage | BTreeStorage | HashStorage = \
            self._build(structure)
        self.structure = structure
        # Declared primary keys are enforced through an in-memory key map
        # (the moral equivalent of the PK index a real engine maintains),
        # so heap tables get uniqueness too.
        self._key_positions = schema.key_positions()
        self._pk_map: dict[tuple, int] = {}

    def _build(self, structure: StorageStructure,
               ) -> HeapStorage | BTreeStorage | HashStorage:
        if structure is StorageStructure.HEAP:
            return HeapStorage(
                self.schema, self._disk, self._pool,
                main_pages=self._main_pages,
            )
        key = self.schema.primary_key or (self.schema.columns[0].name,)
        if structure is StorageStructure.HASH:
            return HashStorage(
                self.schema, tuple(key), self._disk, self._pool,
                buckets=self._main_pages,
                unique=bool(self.schema.primary_key),
            )
        return BTreeStorage(
            self.schema, tuple(key), self._disk, self._pool,
            unique=bool(self.schema.primary_key),
        )

    # -- geometry ---------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._store.row_count

    @property
    def page_count(self) -> int:
        return self._store.page_count

    @property
    def overflow_page_count(self) -> int:
        return self._store.overflow_page_count

    @property
    def overflow_ratio(self) -> float:
        return self._store.overflow_ratio

    @property
    def data_bytes(self) -> int:
        return self._store.page_count * self._disk.page_size

    @property
    def btree(self) -> BTreeStorage:
        """The underlying B-Tree (for keyed/range access paths)."""
        if not isinstance(self._store, BTreeStorage):
            raise StorageError(
                f"table {self.schema.name!r} is not stored as a B-Tree"
            )
        return self._store

    @property
    def hash(self) -> HashStorage:
        """The underlying hash structure (for equality access paths)."""
        if not isinstance(self._store, HashStorage):
            raise StorageError(
                f"table {self.schema.name!r} is not stored as a hash table"
            )
        return self._store

    @property
    def supports_keyed_access(self) -> bool:
        """True if the structure offers any keyed access path."""
        return isinstance(self._store, (BTreeStorage, HashStorage))

    @property
    def supports_prefix_access(self) -> bool:
        """True if keyed access works on key *prefixes* and ranges
        (B-Tree); hash structures need the full key with equality."""
        return isinstance(self._store, BTreeStorage)

    @property
    def key_columns(self) -> tuple[str, ...]:
        if isinstance(self._store, (BTreeStorage, HashStorage)):
            return self._store.key_columns
        return ()

    def seek(self, key: tuple[Any, ...]) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Keyed equality lookup through the current structure.

        For a B-Tree ``key`` may be a prefix of the key columns; for a
        hash structure it must cover all of them.
        """
        if isinstance(self._store, (BTreeStorage, HashStorage)):
            return self._store.seek(key)
        raise StorageError(
            f"table {self.schema.name!r} has no keyed access path"
        )

    # -- row operations -----------------------------------------------------

    def insert(self, row: tuple[Any, ...]) -> int:
        """Validate and store ``row``; returns the assigned rowid."""
        return self.insert_checked(self.schema.check_row(row))

    def insert_with_rowid(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Validate and store ``row`` under an explicit rowid
        (undo/replication path)."""
        self._store_row(rowid, self.schema.check_row(row))

    def insert_checked(self, row: tuple[Any, ...]) -> int:
        """Store a row ``schema.check_row`` already returned (callers
        that need the checked row themselves validate once, not twice);
        returns the assigned rowid."""
        rowid = self._next_rowid
        self._store_row(rowid, row)
        return rowid

    def _store_row(self, rowid: int, checked: tuple[Any, ...]) -> None:
        key = self._primary_key(checked)
        if key is not None and key in self._pk_map:
            raise StorageError(
                f"duplicate primary key {key!r} in table {self.schema.name!r}"
            )
        self._store.insert(rowid, checked)
        if key is not None:
            self._pk_map[key] = rowid
        self._next_rowid = max(self._next_rowid, rowid + 1)
        self.modifications_since_stats += 1

    def insert_many_checked(self, rows: Iterable[tuple[Any, ...]]) -> int:
        """Store already-checked rows in order; returns how many.

        A heap without a primary key — where a row's place depends on
        nothing but the rows before it — is appended a page at a time
        (see :meth:`HeapStorage.insert_many`); any other table takes
        one :meth:`insert_checked` per row.  Rowids are the same either
        way.  ``rows`` is consumed lazily, so an exception from it or
        from the store leaves exactly the rows before it stored.
        """
        store = self._store
        if not isinstance(store, HeapStorage) or self._key_positions:
            stored = 0
            for row in rows:
                self.insert_checked(row)
                stored += 1
            return stored
        before = store.row_count
        try:
            return store.insert_many(zip(count(self._next_rowid), rows))
        finally:
            stored = store.row_count - before
            self._next_rowid += stored
            self.modifications_since_stats += stored

    def delete(self, rowid: int) -> tuple[Any, ...]:
        row = self._store.delete(rowid)
        key = self._primary_key(row)
        if key is not None:
            self._pk_map.pop(key, None)
        self.modifications_since_stats += 1
        return row

    def update(self, rowid: int, row: tuple[Any, ...]) -> None:
        self.update_checked(rowid, self.schema.check_row(row),
                            self._store.fetch(rowid))

    def update_checked(self, rowid: int, checked: tuple[Any, ...],
                       old_row: tuple[Any, ...]) -> None:
        """Replace ``old_row`` — the row stored under ``rowid`` — by a
        row ``schema.check_row`` already returned (callers that hold
        both neither fetch nor validate a second time)."""
        new_key = self._primary_key(checked)
        old_key = self._primary_key(old_row)
        if new_key != old_key and new_key in self._pk_map:
            raise StorageError(
                f"duplicate primary key {new_key!r} in table "
                f"{self.schema.name!r}"
            )
        self._store.update(rowid, checked)
        if new_key != old_key:
            self._pk_map.pop(old_key, None)
            self._pk_map[new_key] = rowid
        self.modifications_since_stats += 1

    def _primary_key(self, row: tuple[Any, ...]) -> tuple | None:
        if not self._key_positions:
            return None
        return tuple(row[i] for i in self._key_positions)

    def fetch(self, rowid: int) -> tuple[Any, ...]:
        return self._store.fetch(rowid)

    def contains(self, rowid: int) -> bool:
        return self._store.contains(rowid)

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        return self._store.scan()

    def pages(self) -> Iterator[tuple[Collection[int],
                                      Collection[tuple[Any, ...]]]]:
        """Full scan a page at a time: each page's rowids and rows."""
        return self._store.pages()

    # -- physical reorganization ---------------------------------------------

    def modify_to(self, structure: StorageStructure,
                  main_pages: int | None = None) -> None:
        """Rebuild the table into ``structure`` (MODIFY ... TO ...).

        Rowids are preserved, so secondary indexes stay valid.
        """
        entries = list(self._store.scan())
        old = self._store
        if main_pages is not None:
            self._main_pages = main_pages
        new_store = self._build(structure)
        try:
            new_store.bulk_load(entries)
        except StorageError:
            new_store.drop()
            raise
        old.drop()
        self._store = new_store
        self.structure = structure

    def drop(self) -> None:
        self._store.drop()
