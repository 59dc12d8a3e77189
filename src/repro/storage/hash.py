"""Hash storage structure: fixed main buckets with overflow chains.

Ingres' HASH structure allocates a fixed number of main pages (buckets)
at MODIFY time; rows hash to a bucket by key and overflow pages chain
off full buckets.  This is the structure the paper's overflow rule has
in mind most literally: "a table with a fixed amount of main data pages
has already more than 10 % overflow pages".

Equality lookups on the *full* key are O(chain length); there is no
ordered or prefix access.
"""

from __future__ import annotations

import zlib
from typing import Any, Collection, Iterable, Iterator

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import FILL_FACTOR
from repro.storage.page import HeapPage


def stable_hash(values: tuple[Any, ...]) -> int:
    """A process-independent hash of key values (bucket placement must
    be deterministic across runs for reproducible experiments)."""
    accumulator = 2166136261
    for value in values:
        if value is None:
            encoded = b"\x00"
        elif isinstance(value, bool):
            encoded = b"\x01" if value else b"\x02"
        elif isinstance(value, int):
            encoded = value.to_bytes(16, "big", signed=True)
        elif isinstance(value, float):
            encoded = repr(value).encode("ascii")
        else:
            encoded = str(value).encode("utf-8")
        accumulator = (accumulator ^ zlib.crc32(encoded)) * 16777619
        accumulator &= 0xFFFFFFFFFFFFFFFF
    return accumulator


class HashStorage:
    """Bucketed row storage with per-bucket overflow chains."""

    structure_name = "hash"

    def __init__(self, schema: TableSchema, key_columns: tuple[str, ...],
                 disk: DiskManager, pool: BufferPool,
                 buckets: int = 16, unique: bool = False) -> None:
        if not key_columns:
            raise StorageError("a hash table needs at least one key column")
        if buckets < 1:
            raise StorageError(f"need >= 1 bucket, got {buckets}")
        self.schema = schema
        self.key_columns = tuple(key_columns)
        self.unique = unique
        self.buckets = buckets
        self._key_positions = tuple(schema.column_index(c)
                                    for c in key_columns)
        self._disk = disk
        self._pool = pool
        self._fill_capacity = int(disk.page_size * FILL_FACTOR)
        # chains[bucket] is the ordered list of page ids (main page first);
        # main pages are allocated lazily but count against the budget.
        self._chains: list[list[int]] = [[] for _ in range(buckets)]
        self._rowid_to_page: dict[int, int] = {}
        self._rowid_to_bucket: dict[int, int] = {}
        self._row_count = 0

    # -- key helpers -------------------------------------------------------

    def key_of(self, row: tuple[Any, ...]) -> tuple[Any, ...]:
        return tuple(row[i] for i in self._key_positions)

    def _bucket_of(self, key: tuple[Any, ...]) -> int:
        return stable_hash(key) % self.buckets

    # -- page plumbing ---------------------------------------------------------

    def _load(self, page_id: int) -> HeapPage:
        return self._pool.get(
            page_id,
            lambda raw: HeapPage.from_bytes(raw, self.schema,
                                            self._fill_capacity),
        )

    def _new_page(self, bucket: int) -> tuple[int, HeapPage]:
        page_id = self._disk.allocate()
        page = HeapPage(self.schema, self._fill_capacity)
        self._pool.put_new(page_id, page)
        self._chains[bucket].append(page_id)
        return page_id, page

    # -- geometry -----------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        return sum(len(chain) for chain in self._chains)

    @property
    def main_page_count(self) -> int:
        return sum(1 for chain in self._chains if chain)

    @property
    def overflow_page_count(self) -> int:
        """Everything past the first page of each bucket is overflow."""
        return sum(max(0, len(chain) - 1) for chain in self._chains)

    @property
    def overflow_ratio(self) -> float:
        pages = self.page_count
        if pages == 0:
            return 0.0
        return self.overflow_page_count / pages

    @property
    def average_chain_length(self) -> float:
        used = [len(chain) for chain in self._chains if chain]
        if not used:
            return 0.0
        return sum(used) / len(used)

    def page_ids(self) -> tuple[int, ...]:
        return tuple(pid for chain in self._chains for pid in chain)

    # -- mutation ---------------------------------------------------------------------

    def insert(self, rowid: int, row: tuple[Any, ...]) -> None:
        if rowid in self._rowid_to_page:
            raise StorageError(f"duplicate rowid {rowid}")
        size = self.schema.codec.size(row)
        if size > self._fill_capacity:
            raise StorageError(
                f"row of {size} bytes exceeds the "
                f"usable page capacity {self._fill_capacity}"
            )
        key = self.key_of(row)
        bucket = self._bucket_of(key)
        if self.unique:
            for _rid, existing in self._seek_bucket(bucket, key):
                raise StorageError(
                    f"duplicate key {key!r} in unique hash table "
                    f"{self.schema.name!r}"
                )
        target_id: int | None = None
        target_page: HeapPage | None = None
        for page_id in self._chains[bucket]:
            page = self._load(page_id)
            if page.has_room(size):
                target_id, target_page = page_id, page
                break
        if target_page is None:
            target_id, target_page = self._new_page(bucket)
        target_page.insert(rowid, row, size)
        self._pool.put(target_id, target_page)
        self._rowid_to_page[rowid] = target_id
        self._rowid_to_bucket[rowid] = bucket
        self._row_count += 1

    def delete(self, rowid: int) -> tuple[Any, ...]:
        page_id = self._locate(rowid)
        page = self._load(page_id)
        row = page.delete(rowid)
        self._pool.put(page_id, page)
        del self._rowid_to_page[rowid]
        del self._rowid_to_bucket[rowid]
        self._row_count -= 1
        return row

    def update(self, rowid: int, row: tuple[Any, ...]) -> None:
        old_bucket = self._rowid_to_bucket.get(rowid)
        if old_bucket is None:
            raise StorageError(f"rowid {rowid} not found")
        new_bucket = self._bucket_of(self.key_of(row))
        if new_bucket == old_bucket:
            page_id = self._locate(rowid)
            page = self._load(page_id)
            if page.replace(rowid, row):
                self._pool.put(page_id, page)
                return
        self.delete(rowid)
        self.insert(rowid, row)

    def fetch(self, rowid: int) -> tuple[Any, ...]:
        return self._load(self._locate(rowid)).get(rowid)

    def contains(self, rowid: int) -> bool:
        return rowid in self._rowid_to_page

    # -- access paths --------------------------------------------------------------------

    def seek(self, key: tuple[Any, ...]) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Equality lookup on the **full** key: walk one bucket chain."""
        if len(key) != len(self.key_columns):
            raise StorageError(
                f"hash lookup needs all {len(self.key_columns)} key "
                f"column(s), got {len(key)}"
            )
        yield from self._seek_bucket(self._bucket_of(key), key)

    def _seek_bucket(self, bucket: int,
                     key: tuple[Any, ...]) -> Iterator[tuple[int, tuple]]:
        for page_id in self._chains[bucket]:
            page = self._load(page_id)
            for rowid, row in page.items():
                if self.key_of(row) == key:
                    yield rowid, row

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        for rowids, rows in self.pages():
            yield from zip(rowids, rows)

    def pages(self) -> Iterator[tuple[Collection[int],
                                      Collection[tuple[Any, ...]]]]:
        """Full scan a page at a time, bucket by bucket: each page's
        rowids and rows, in step (live views of the page)."""
        for chain in self._chains:
            for page_id in chain:
                entries = self._load(page_id).entries
                yield entries.keys(), entries.values()

    # -- bulk -----------------------------------------------------------------------------

    def bulk_load(self, entries: Iterable[tuple[int, tuple[Any, ...]]]) -> None:
        if self._row_count:
            raise StorageError("bulk_load requires an empty hash table")
        for rowid, row in entries:
            self.insert(rowid, row)

    def drop(self) -> None:
        for chain in self._chains:
            for page_id in chain:
                self._pool.invalidate(page_id)
                self._disk.free(page_id)
            chain.clear()
        self._rowid_to_page.clear()
        self._rowid_to_bucket.clear()
        self._row_count = 0

    def _locate(self, rowid: int) -> int:
        try:
            return self._rowid_to_page[rowid]
        except KeyError:
            raise StorageError(f"rowid {rowid} not found") from None
