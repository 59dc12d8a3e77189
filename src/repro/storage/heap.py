"""Heap storage structure with main pages and overflow chains.

Ingres' default structure is heap; the paper's analyzer flags tables
whose overflow-page share exceeds 10 % and recommends MODIFY ... TO
BTREE.  We model the same geometry: a heap is created with a fixed
budget of *main* pages (:class:`TableStorage` defaults to 8); once rows no
longer fit there, further pages are *overflow* pages chained at the end.
The :func:`overflow_ratio` of a table is what the analyzer rule reads.
"""

from __future__ import annotations

from typing import Any, Collection, Iterable, Iterator

from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import HeapPage

FILL_FACTOR = 0.9
"""The share of each page a heap or B-Tree fills before it takes a new
page."""


class HeapStorage:
    """Append-ordered row storage across a chain of heap pages."""

    structure_name = "heap"

    def __init__(self, schema: TableSchema, disk: DiskManager,
                 pool: BufferPool, main_pages: int = 8) -> None:
        if main_pages < 1:
            raise StorageError(f"heap needs >= 1 main page, got {main_pages}")
        self.schema = schema
        self._disk = disk
        self._pool = pool
        self.main_page_budget = main_pages
        self._fill_capacity = int(disk.page_size * FILL_FACTOR)
        self._page_ids: list[int] = []
        self._rowid_to_page: dict[int, int] = {}
        self._row_count = 0

    # -- page plumbing ---------------------------------------------------

    def _load(self, page_id: int) -> HeapPage:
        return self._pool.get(
            page_id,
            lambda raw: HeapPage.from_bytes(raw, self.schema, self._fill_capacity),
        )

    def _new_page(self) -> tuple[int, HeapPage]:
        page_id = self._disk.allocate()
        page = HeapPage(self.schema, self._fill_capacity)
        self._pool.put_new(page_id, page)
        self._page_ids.append(page_id)
        return page_id, page

    # -- public API ------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    @property
    def main_page_count(self) -> int:
        return min(len(self._page_ids), self.main_page_budget)

    @property
    def overflow_page_count(self) -> int:
        return max(0, len(self._page_ids) - self.main_page_budget)

    @property
    def overflow_ratio(self) -> float:
        """Overflow pages as a fraction of all data pages."""
        if not self._page_ids:
            return 0.0
        return self.overflow_page_count / len(self._page_ids)

    @property
    def row_count(self) -> int:
        return self._row_count

    def page_ids(self) -> tuple[int, ...]:
        return tuple(self._page_ids)

    def insert(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Append a row; allocates a new (possibly overflow) page if the
        current last page is full."""
        self.insert_many(((rowid, row),))

    def insert_many(self,
                    entries: Iterable[tuple[int, tuple[Any, ...]]]) -> int:
        """Append ``(rowid, row)`` entries in order, a page at a time;
        returns how many were stored.

        Each row is sized once; the last page is loaded once and filled
        until a row no longer fits, then the next page is allocated, so
        pages pack exactly as one :meth:`insert` per row would pack
        them.  Every page touched is handed back to the pool once.  If
        an entry is rejected (or a write-back fails while a page is
        admitted) the exception propagates and exactly the entries
        before it stay stored — the workload DB's crash-prefix
        guarantee rests on this.
        """
        page_id = -1
        page: HeapPage | None = None
        if self._page_ids:
            page_id = self._page_ids[-1]
            page = self._load(page_id)
        stored = 0
        unsaved = False
        rowid_to_page = self._rowid_to_page
        fill_capacity = self._fill_capacity
        row_size = self.schema.codec.size
        try:
            for rowid, row in entries:
                if rowid in rowid_to_page:
                    raise StorageError(f"duplicate rowid {rowid}")
                size = row_size(row)
                if size > fill_capacity:
                    raise StorageError(
                        f"row of {size} bytes exceeds the "
                        f"usable page capacity {fill_capacity}"
                    )
                if page is None or not page.has_room(size):
                    if page is not None and unsaved:
                        unsaved = False
                        self._pool.put(page_id, page)
                    page_id, page = self._new_page()
                page.insert(rowid, row, size)
                unsaved = True
                rowid_to_page[rowid] = page_id
                self._row_count += 1
                stored += 1
        finally:
            if page is not None and unsaved:
                self._pool.put(page_id, page)
        return stored

    def fetch(self, rowid: int) -> tuple[Any, ...]:
        """Read one row by rowid (one page access)."""
        page_id = self._locate(rowid)
        return self._load(page_id).get(rowid)

    def delete(self, rowid: int) -> tuple[Any, ...]:
        """Remove a row; the hole is not reused until a MODIFY rebuild,
        as in a classic heap."""
        page_id = self._locate(rowid)
        page = self._load(page_id)
        row = page.delete(rowid)
        self._pool.put(page_id, page)
        del self._rowid_to_page[rowid]
        self._row_count -= 1
        return row

    def update(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Replace a row in place, relocating it to the end if it grew
        beyond its page's free space."""
        page_id = self._locate(rowid)
        page = self._load(page_id)
        if page.replace(rowid, row):
            self._pool.put(page_id, page)
            return
        page.delete(rowid)
        self._pool.put(page_id, page)
        del self._rowid_to_page[rowid]
        self._row_count -= 1
        self.insert(rowid, row)

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Full scan in page order, yielding (rowid, row)."""
        for rowids, rows in self.pages():
            yield from zip(rowids, rows)

    def pages(self) -> Iterator[tuple[Collection[int],
                                      Collection[tuple[Any, ...]]]]:
        """Full scan a page at a time, in page order: each page's
        rowids and rows, in step (live views of the page)."""
        for page_id in self._page_ids:
            entries = self._load(page_id).entries
            yield entries.keys(), entries.values()

    def contains(self, rowid: int) -> bool:
        return rowid in self._rowid_to_page

    def bulk_load(self, entries: Iterable[tuple[int, tuple[Any, ...]]]) -> None:
        """Load (rowid, row) pairs into an empty heap."""
        if self._page_ids:
            raise StorageError("bulk_load requires an empty heap")
        self.insert_many(entries)

    def free_empty_prefix(self) -> int:
        """Free the leading pages that hold no row, up to the first one
        that does; returns how many were freed.  :meth:`delete` alone
        frees nothing: the workload DB's retention, which deletes a
        prefix of the rows, calls this after it."""
        page_ids = self._page_ids
        freed = 0
        while page_ids and not self._load(page_ids[0]).entries:
            page_id = page_ids.pop(0)
            self._pool.invalidate(page_id)
            self._disk.free(page_id)
            freed += 1
        return freed

    def drop(self) -> None:
        """Free every page of this heap."""
        for page_id in self._page_ids:
            self._pool.invalidate(page_id)
            self._disk.free(page_id)
        self._page_ids.clear()
        self._rowid_to_page.clear()
        self._row_count = 0

    def _locate(self, rowid: int) -> int:
        try:
            return self._rowid_to_page[rowid]
        except KeyError:
            raise StorageError(f"rowid {rowid} not found") from None
