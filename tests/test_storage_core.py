"""Tests for records, pages, the disk manager and the buffer pool."""

import pytest

from repro import faultsim
from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import BufferPoolError, PageError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage import disk as disk_module
from repro.storage.disk import DiskManager, ScopedIoMeter
from repro.storage.page import HeapPage, InternalPage, LeafPage, page_kind


@pytest.fixture
def schema():
    return TableSchema("t", (
        Column("id", DataType.INT, nullable=False),
        Column("name", DataType.VARCHAR, 50),
        Column("weight", DataType.FLOAT),
        Column("active", DataType.BOOL),
        Column("notes", DataType.TEXT),
    ))


class TestRecord:
    def test_round_trip(self, schema):
        row = (42, "hello", 3.5, True, "some notes")
        data = schema.codec.pack(row)
        decoded, offset = schema.codec.unpack(data)
        assert decoded == row
        assert offset == len(data)

    def test_round_trip_with_nulls(self, schema):
        row = (1, None, None, None, None)
        decoded, _ = schema.codec.unpack(schema.codec.pack(row))
        assert decoded == row

    def test_row_size_matches_packed_length(self, schema):
        for row in [(1, "abc", 2.5, False, "x" * 100),
                    (2, None, None, True, None)]:
            assert schema.codec.size(row) == len(schema.codec.pack(row))

    def test_unicode_strings(self, schema):
        row = (1, "héllo", 0.0, True, "日本語テキスト")
        decoded, _ = schema.codec.unpack(schema.codec.pack(row))
        assert decoded == row

    def test_negative_and_large_ints(self, schema):
        row = (-(2**62), "x", -1.5, False, "")
        decoded, _ = schema.codec.unpack(schema.codec.pack(row))
        assert decoded == row

    def test_consecutive_rows(self, schema):
        rows = [(i, f"n{i}", float(i), bool(i % 2), "t") for i in range(5)]
        data = b"".join(schema.codec.pack(r) for r in rows)
        offset = 0
        for expected in rows:
            decoded, offset = schema.codec.unpack(data, offset)
            assert decoded == expected


class TestDiskManager:
    def test_allocate_read_write(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"hello")
        assert disk.read(page) == b"hello"

    def test_counters(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"x")
        disk.read(page)
        disk.read(page)
        counters = disk.counters()
        assert counters.allocations == 1
        assert counters.writes == 1
        assert counters.reads == 2

    def test_free(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.free(page)
        with pytest.raises(PageError):
            disk.read(page)
        with pytest.raises(PageError):
            disk.free(page)

    def test_oversized_write_rejected(self, monkeypatch):
        monkeypatch.setattr(disk_module, "PAGE_SIZE", 64)
        disk = DiskManager()
        page = disk.allocate()
        with pytest.raises(PageError):
            disk.write(page, b"x" * 65)

    def test_unallocated_access(self):
        disk = DiskManager()
        with pytest.raises(PageError):
            disk.read(99)
        with pytest.raises(PageError):
            disk.write(99, b"")

    def test_total_bytes_counts_page_slots(self):
        disk = DiskManager()
        disk.allocate()
        disk.allocate()
        assert disk.total_bytes == 8192
        assert disk.page_count == 2

    def test_scoped_meter(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"a")
        with ScopedIoMeter(disk) as meter:
            disk.read(page)
            disk.read(page)
        assert meter.result.reads == 2
        assert meter.result.writes == 0


class TestPages:
    def test_heap_page_round_trip(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        page.insert(2, (2, "b", 2.0, False, None))
        restored = HeapPage.from_bytes(page.to_bytes(), schema, 4096)
        assert dict(restored.items()) == dict(page.items())
        assert restored.used_bytes == page.used_bytes

    def test_heap_page_capacity(self, schema):
        page = HeapPage(schema, capacity=100)
        page.insert(1, (1, "a", 1.0, True, ""))
        big = (2, "x" * 45, 1.0, True, "")
        assert not page.fits(big)
        with pytest.raises(PageError):
            page.insert(2, big)

    def test_heap_page_delete_and_replace(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        before = page.used_bytes
        assert page.replace(1, (1, "aa", 1.0, True, "n"))
        assert page.used_bytes == before + 1
        page.delete(1)
        assert len(page) == 0
        with pytest.raises(PageError):
            page.delete(1)

    def test_heap_page_duplicate_rowid(self, schema):
        page = HeapPage(schema, capacity=4096)
        page.insert(1, (1, "a", 1.0, True, "n"))
        with pytest.raises(PageError):
            page.insert(1, (1, "b", 1.0, True, "n"))

    def test_leaf_page_round_trip(self, schema):
        page = LeafPage(schema, capacity=4096)
        page.insert_at(0, 10, (10, "a", 1.0, True, ""))
        page.insert_at(1, 20, (20, "b", 2.0, True, ""))
        page.next_leaf = 77
        restored = LeafPage.from_bytes(page.to_bytes(), schema, 4096)
        assert restored.rowids == [10, 20]
        assert restored.next_leaf == 77

    def test_leaf_split_halves(self, schema):
        page = LeafPage(schema, capacity=1 << 20)
        for i in range(10):
            page.insert_at(i, i, (i, "x", 1.0, True, ""))
        sibling = page.split()
        assert len(page) == 5 and len(sibling) == 5
        assert sibling.rowids[0] == 5

    def test_internal_page_round_trip(self, schema):
        key_schema = TableSchema("k", (
            Column("id", DataType.INT),
            Column("_rowid", DataType.INT, nullable=False),
        ))
        page = InternalPage(key_schema, capacity=4096)
        page.children.append(100)
        page.insert_child(0, (5, 1), 200)
        page.insert_child(1, (9, 2), 300)
        restored = InternalPage.from_bytes(page.to_bytes(), key_schema, 4096)
        assert restored.children == [100, 200, 300]
        assert restored.keys == [(5, 1), (9, 2)]

    def test_decoded_pages_account_the_bytes_they_were_read_from(self, schema):
        # from_bytes takes used_bytes from the decode offset instead of
        # re-sizing every row: same bytes, for every DataType, NULLs
        # and multi-byte text included.
        rows = [(1, "héllo", 2.5, True, "日本語テキスト"),
                (2, None, None, None, None),
                (-(2 ** 62), "", -0.0, False, ""),
                (4, "x" * 50, 7, True, "ü" * 300)]
        sized = sum(8 + schema.codec.size(row) for row in rows)
        heap = HeapPage(schema, 4096)
        leaf = LeafPage(schema, 4096)
        for rowid, row in enumerate(rows):
            heap.insert(rowid, row)
            leaf.insert_at(rowid, rowid, row)
        for page, kind in ((heap, HeapPage), (leaf, LeafPage)):
            restored = kind.from_bytes(page.to_bytes(), schema, 4096)
            assert restored.used_bytes == page.used_bytes
            assert restored.used_bytes == len(page.to_bytes())
            assert restored.used_bytes - kind(schema, 4096).used_bytes == sized
        key_schema = TableSchema("k", (
            Column("name", DataType.VARCHAR, 50), Column("w", DataType.FLOAT),
            Column("ok", DataType.BOOL), Column("_rowid", DataType.INT)))
        keys = [("é", 1.5, True, 1), (None, None, None, 2)]
        internal = InternalPage(key_schema, 4096)
        internal.children.append(100)
        for position, key in enumerate(keys):
            internal.insert_child(position, key, 200 + position)
        restored = InternalPage.from_bytes(internal.to_bytes(), key_schema, 4096)
        assert restored.used_bytes == len(internal.to_bytes())
        # header + one child per key + the leading child + the keys
        assert restored.used_bytes == InternalPage(key_schema, 4096).used_bytes \
            + 8 * (len(keys) + 1) + sum(key_schema.codec.size(k) for k in keys)

    def test_page_kind(self, schema):
        heap = HeapPage(schema, 4096)
        assert page_kind(heap.to_bytes()) == HeapPage.kind
        with pytest.raises(PageError):
            page_kind(b"")

    def test_wrong_kind_rejected(self, schema):
        heap = HeapPage(schema, 4096)
        with pytest.raises(PageError):
            LeafPage.from_bytes(heap.to_bytes(), schema, 4096)


class TestBufferPool:
    def test_requires_positive_capacity(self):
        with pytest.raises(BufferPoolError):
            BufferPool(DiskManager(), 0)

    def test_hit_avoids_disk(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        page = HeapPage(schema, 4096)
        page.insert(1, (1, "a", 1.0, True, ""))
        pool.put_new(page_id, page)
        got = pool.get(page_id, lambda raw: None)
        assert got is page
        assert disk.counters().reads == 0
        assert pool.stats().hits == 1

    def test_eviction_writes_back_dirty(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 2)
        ids = []
        for i in range(3):
            page_id = disk.allocate()
            page = HeapPage(schema, 4096)
            page.insert(i, (i, "x", 1.0, True, ""))
            pool.put_new(page_id, page)
            ids.append(page_id)
        assert pool.stats().evictions == 1
        assert pool.stats().dirty_writebacks == 1
        # evicted page is reloadable with its data intact
        loader = lambda raw: HeapPage.from_bytes(raw, schema, 4096)
        restored = pool.get(ids[0], loader)
        assert restored.get(0)[0] == 0

    def test_failed_write_back_keeps_the_only_copy(self, schema):
        # A page that could not be written back is the only copy of its
        # rows: it must return to the cache, dirty, not vanish.
        disk = DiskManager()
        pool = BufferPool(disk, 2)
        ids = [disk.allocate() for _ in range(3)]
        loader = lambda raw: HeapPage.from_bytes(raw, schema, 4096)
        for i, page_id in enumerate(ids[:2]):
            page = HeapPage(schema, 4096)
            page.insert(i, (i, "x", 1.0, True, ""))
            pool.put_new(page_id, page)
        faultsim.arm_from_spec("disk.write:once")
        with pytest.raises(StorageError):
            pool.put_new(ids[2], HeapPage(schema, 4096))  # evicts ids[0]
        assert pool.get(ids[0], loader).get(0)[0] == 0
        with pytest.raises(StorageError):
            faultsim.arm_from_spec("disk.write:once")
            pool.flush_all()
        assert pool.flush_all() == 3  # still dirty, all of them
        pool.clear()
        assert [len(pool.get(page_id, loader)) for page_id in ids] == [1, 1, 0]

    def test_put_readmits_after_eviction(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 1)
        a, b = disk.allocate(), disk.allocate()
        page_a = HeapPage(schema, 4096)
        pool.put_new(a, page_a)
        pool.put_new(b, HeapPage(schema, 4096))  # evicts a
        page_a.insert(5, (5, "late", 1.0, True, ""))
        pool.put(a, page_a)  # safe re-admit
        pool.clear()
        restored = pool.get(a, lambda raw: HeapPage.from_bytes(raw, schema,
                                                               4096))
        assert 5 in restored.entries

    def test_mark_dirty_requires_cached(self):
        pool = BufferPool(DiskManager(), 2)
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(42)

    def test_flush_all(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        pool.put_new(page_id, HeapPage(schema, 4096))
        assert pool.flush_all() == 1
        assert pool.flush_all() == 0  # idempotent

    def test_invalidate(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        pool.put_new(page_id, HeapPage(schema, 4096))
        pool.invalidate(page_id)
        assert pool.cached_page_count == 0
        assert pool.flush_all() == 0

    def test_hit_ratio(self, schema):
        disk = DiskManager()
        pool = BufferPool(disk, 4)
        page_id = disk.allocate()
        disk.write(page_id, HeapPage(schema, 4096).to_bytes())
        loader = lambda raw: HeapPage.from_bytes(raw, schema, 4096)
        pool.get(page_id, loader)
        pool.get(page_id, loader)
        assert pool.stats().hit_ratio == pytest.approx(0.5)

    # -- 2Q replacement: what LRU gets wrong ----------------------------------

    CAPACITY = 16

    @staticmethod
    def _pool(pages):
        disk = DiskManager()
        page_ids = [disk.allocate() for _ in range(pages)]
        return BufferPool(disk, TestBufferPool.CAPACITY), page_ids

    @staticmethod
    def _misses(pool, page_ids):
        """Read ``page_ids`` in order; return how many were misses."""
        before = pool.stats().misses
        for page_id in page_ids:
            pool.get(page_id, _Blob)
        return pool.stats().misses - before

    def test_loop_one_page_over_capacity_stays_resident(self):
        # LRU evicts each page just before the loop comes back to it:
        # capacity + 1 misses per pass, forever.
        pool, loop = self._pool(self.CAPACITY + 1)
        self._misses(pool, loop)
        self._misses(pool, loop)
        for _ in range(6):
            assert self._misses(pool, loop) <= 4

    def test_hot_set_survives_a_one_off_scan(self):
        # The hot set is touched after every `capacity` scan pages; LRU
        # has evicted all of it by then, every time.
        capacity = self.CAPACITY
        pool, page_ids = self._pool(capacity // 2 + 3 * capacity)
        hot, scan = page_ids[:capacity // 2], page_ids[capacity // 2:]
        self._misses(pool, hot)
        self._misses(pool, scan[:capacity])
        self._misses(pool, hot)  # read again as ghosts: now in Am
        for start in range(capacity, len(scan), capacity):
            self._misses(pool, scan[start:start + capacity])
            assert self._misses(pool, hot) == 0

    def test_working_set_within_capacity_never_misses_again(self):
        pool, page_ids = self._pool(self.CAPACITY)
        assert self._misses(pool, page_ids) == self.CAPACITY
        for order in (page_ids, page_ids[::-1],
                      page_ids[1::2] + page_ids[::2]):
            assert self._misses(pool, order) == 0
        assert pool.stats().evictions == 0

    def test_loop_of_twice_the_capacity_misses_every_access(self):
        # The documented limit, and no worse than LRU, which also misses
        # every access of such a loop.
        pool, loop = self._pool(2 * self.CAPACITY)
        for _ in range(4):
            assert self._misses(pool, loop) == len(loop)

    def test_invalidated_page_read_again_enters_a1in(self):
        capacity = self.CAPACITY
        pool, page_ids = self._pool(2 * capacity + 2)
        gone, ghost, scan = page_ids[0], page_ids[1], page_ids[2:]
        self._misses(pool, [gone, ghost] + scan[:capacity])
        assert pool.peek(gone) is None and pool.peek(ghost) is None
        pool.invalidate(gone)  # forgets its ghost too
        assert self._misses(pool, [gone, ghost]) == 2
        self._misses(pool, scan[capacity:])
        assert pool.peek(ghost) is not None  # was a ghost: entered Am
        assert pool.peek(gone) is None  # a first read: A1in, scanned out

    def test_peek_neither_counts_nor_reorders(self):
        # Twelve pages in Am and A1in at its share, so the next miss
        # evicts Am's LRU end: the oldest page, unless a hit moved it.
        capacity = self.CAPACITY

        def evicted_after(touch):
            pool, page_ids = self._pool(capacity + capacity // 2 + 1)
            self._misses(pool, page_ids[:capacity + capacity // 2])
            self._misses(pool, page_ids[:capacity * 3 // 4])  # ghosts: Am
            before = pool.stats()
            touch(pool, page_ids[0])
            counted = pool.stats() != before
            resident = {p for p in page_ids if pool.peek(p) is not None}
            self._misses(pool, page_ids[-1:])
            return counted, {page_ids.index(p) for p in resident
                             if pool.peek(p) is None}

        assert evicted_after(BufferPool.peek) == (False, {0})
        assert evicted_after(lambda pool, p: pool.get(p, _Blob)) == \
            (True, {1})


class _Blob:
    """The smallest page object: its bytes are its content."""

    def __init__(self, raw):
        self.raw = raw

    def to_bytes(self):
        return self.raw
