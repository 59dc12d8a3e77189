"""Tests for the heap storage structure (incl. overflow accounting)."""

import pytest

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import StorageError
from repro.storage.heap import HeapStorage


@pytest.fixture
def schema():
    return TableSchema("t", (
        Column("id", DataType.INT, nullable=False),
        Column("payload", DataType.VARCHAR, 200),
    ))


@pytest.fixture
def heap(schema, disk, pool):
    return HeapStorage(schema, disk, pool, main_pages=2)


def fill(heap, count, payload="x" * 100):
    for i in range(count):
        heap.insert(i, (i, payload))


class TestHeapBasics:
    def test_requires_main_pages(self, schema, disk, pool):
        with pytest.raises(StorageError):
            HeapStorage(schema, disk, pool, main_pages=0)

    def test_insert_fetch(self, heap):
        heap.insert(1, (1, "hello"))
        assert heap.fetch(1) == (1, "hello")
        assert heap.row_count == 1
        assert heap.contains(1)

    def test_duplicate_rowid(self, heap):
        heap.insert(1, (1, "a"))
        with pytest.raises(StorageError):
            heap.insert(1, (1, "b"))

    def test_fetch_missing(self, heap):
        with pytest.raises(StorageError):
            heap.fetch(42)

    def test_scan_returns_all(self, heap):
        fill(heap, 50)
        rows = dict(heap.scan())
        assert len(rows) == 50
        assert rows[17] == (17, "x" * 100)

    def test_oversized_row_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.insert(1, (1, "y" * 5000))


class TestOverflow:
    def test_no_overflow_when_small(self, heap):
        fill(heap, 5)
        assert heap.overflow_page_count == 0
        assert heap.overflow_ratio == 0.0

    def test_overflow_grows_past_main_pages(self, heap):
        fill(heap, 200)
        assert heap.page_count > 2
        assert heap.overflow_page_count == heap.page_count - 2
        assert heap.overflow_ratio > 0.5
        assert heap.main_page_count == 2

    def test_empty_heap_ratio(self, heap):
        assert heap.overflow_ratio == 0.0
        assert heap.page_count == 0


class TestMutation:
    def test_delete(self, heap):
        fill(heap, 10)
        row = heap.delete(3)
        assert row == (3, "x" * 100)
        assert heap.row_count == 9
        assert not heap.contains(3)
        with pytest.raises(StorageError):
            heap.delete(3)

    def test_update_in_place(self, heap):
        heap.insert(1, (1, "short"))
        heap.update(1, (1, "longer-but-fits"))
        assert heap.fetch(1) == (1, "longer-but-fits")
        assert heap.row_count == 1

    def test_update_relocates_when_page_full(self, heap):
        fill(heap, 30, payload="x" * 190)
        first_page = heap.page_ids()[0]
        heap.update(0, (0, "y" * 200))
        assert heap.fetch(0) == (0, "y" * 200)
        assert heap.row_count == 30

    def test_deleted_space_not_reused(self, heap):
        fill(heap, 100)
        pages_before = heap.page_count
        for i in range(50):
            heap.delete(i)
        # holes remain: page count unchanged (compaction needs MODIFY)
        assert heap.page_count == pages_before
        heap.insert(1000, (1000, "z"))
        assert heap.page_count >= pages_before


class TestBulkAndDrop:
    def test_bulk_load(self, schema, disk, pool):
        heap = HeapStorage(schema, disk, pool, main_pages=2)
        heap.bulk_load((i, (i, "p")) for i in range(20))
        assert heap.row_count == 20

    def test_bulk_load_requires_empty(self, heap):
        heap.insert(1, (1, "a"))
        with pytest.raises(StorageError):
            heap.bulk_load([(2, (2, "b"))])

    def test_drop_frees_pages(self, heap, disk):
        fill(heap, 100)
        assert disk.page_count > 0
        heap.drop()
        assert heap.row_count == 0
        assert heap.page_count == 0
        assert disk.page_count == 0

    def test_survives_cache_clear(self, heap, pool):
        fill(heap, 120)
        pool.clear()
        assert len(dict(heap.scan())) == 120


class TestInsertMany:
    """The batch path must be indistinguishable from one insert per row."""

    ROWS = [(i, "é" * (1 + 37 * i % 190)) for i in range(300)]

    def _pages(self, heap, pool):
        pool.flush_all()
        return [heap._load(page_id).to_bytes() for page_id in heap.page_ids()]

    def test_same_pages_as_row_at_a_time(self, schema):
        from repro.storage.buffer_pool import BufferPool
        from repro.storage.disk import DiskManager
        built = []
        for bulk in (False, True):
            disk = DiskManager()
            pool = BufferPool(disk, capacity=64)
            heap = HeapStorage(schema, disk, pool, main_pages=2)
            heap.insert(1000, (1000, "already here"))
            entries = [(row[0], row) for row in self.ROWS]
            if bulk:
                assert heap.insert_many(iter(entries)) == len(entries)
            else:
                for rowid, row in entries:
                    heap.insert(rowid, row)
            built.append((self._pages(heap, pool), heap.page_count,
                          heap.overflow_page_count, heap.row_count,
                          disk.total_bytes, dict(heap.scan())))
        assert built[0] == built[1]
        assert built[0][1] > 3  # the batch really spanned pages

    def test_one_pool_put_per_page_touched(self, schema, disk, pool):
        heap = HeapStorage(schema, disk, pool, main_pages=2)
        puts = []
        real_put = pool.put
        pool.put = lambda page_id, page: (puts.append(page_id),
                                          real_put(page_id, page))
        heap.insert_many((row[0], row) for row in self.ROWS)
        assert sorted(puts) == sorted(heap.page_ids())

    def test_rejected_row_leaves_exactly_the_prefix(self, heap):
        entries = [(row[0], row) for row in self.ROWS]
        entries[120] = (120, (120, "y" * 5000))  # no page can hold it
        with pytest.raises(StorageError):
            heap.insert_many(entries)
        assert [rowid for rowid, _row in heap.scan()] == list(range(120))
        assert heap.row_count == 120
        entries[130] = (5, self.ROWS[5])  # duplicate rowid
        with pytest.raises(StorageError):
            heap.insert_many(entries[121:])
        assert [rowid for rowid, _row in heap.scan()] == \
            list(range(120)) + list(range(121, 130))
