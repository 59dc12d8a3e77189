"""Property-based tests for storage structures (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.config import StorageConfig
from repro.storage.btree import BTreeStorage
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapStorage

SCHEMA = TableSchema("t", (
    Column("k", DataType.INT),
    Column("v", DataType.VARCHAR, 30),
))

VALUE_SCHEMA = TableSchema("vals", (
    Column("i", DataType.INT),
    Column("f", DataType.FLOAT),
    Column("s", DataType.VARCHAR, 40),
    Column("b", DataType.BOOL),
    Column("t", DataType.TEXT),
))

row_strategy = st.tuples(
    st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.text(max_size=40)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.text(max_size=200)),
)


class TestRecordRoundTrip:
    @given(row=row_strategy)
    @settings(max_examples=200)
    def test_pack_unpack_identity(self, row):
        data = VALUE_SCHEMA.codec.pack(row)
        decoded, consumed = VALUE_SCHEMA.codec.unpack(data)
        assert decoded == row
        assert consumed == len(data)

    @given(rows=st.lists(row_strategy, max_size=10))
    def test_concatenated_rows(self, rows):
        blob = b"".join(VALUE_SCHEMA.codec.pack(r) for r in rows)
        offset = 0
        for expected in rows:
            decoded, offset = VALUE_SCHEMA.codec.unpack(blob, offset)
            assert decoded == expected
        assert offset == len(blob)


# Operations: ("insert", key) / ("delete", index-into-live-rowids)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 50)),
        st.tuples(st.just("delete"), st.integers(0, 1_000_000)),
    ),
    max_size=120,
)


def build_pool(capacity=6):
    disk = DiskManager(StorageConfig(page_size=512))
    return disk, BufferPool(disk, capacity)


class TestBTreeModel:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool, unique=False)
        model: dict[int, tuple] = {}
        next_rowid = 1
        for op, value in ops:
            if op == "insert":
                row = (value, f"v{value}")
                tree.insert(next_rowid, row)
                model[next_rowid] = row
                next_rowid += 1
            elif model:
                victim = sorted(model)[value % len(model)]
                tree.delete(victim)
                del model[victim]
        assert tree.row_count == len(model)
        scanned = list(tree.scan())
        assert {rid: row for rid, row in scanned} == model
        keys = [row[0] for _rid, row in scanned]
        assert keys == sorted(keys)

    @given(keys=st.lists(st.integers(-100, 100), min_size=1, max_size=80),
           lo=st.integers(-100, 100), hi=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_range_scan_matches_filter(self, keys, lo, hi):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool)
        for i, key in enumerate(keys, start=1):
            tree.insert(i, (key, "x"))
        got = sorted(row[0] for _rid, row in tree.scan_range((lo,), (hi,)))
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert got == expected

    @given(keys=st.lists(st.integers(0, 30), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_seek_finds_all_duplicates(self, keys):
        disk, pool = build_pool()
        tree = BTreeStorage(SCHEMA, ("k",), disk, pool)
        for i, key in enumerate(keys, start=1):
            tree.insert(i, (key, "x"))
        for key in set(keys):
            assert len(list(tree.seek((key,)))) == keys.count(key)

    @given(keys=st.lists(st.integers(0, 1000), unique=True,
                         min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_bulk_load_equals_incremental(self, keys):
        disk1, pool1 = build_pool(capacity=16)
        bulk = BTreeStorage(SCHEMA, ("k",), disk1, pool1, unique=True)
        bulk.bulk_load([(i + 1, (k, "v")) for i, k in enumerate(keys)])
        disk2, pool2 = build_pool(capacity=16)
        incremental = BTreeStorage(SCHEMA, ("k",), disk2, pool2, unique=True)
        for i, k in enumerate(keys):
            incremental.insert(i + 1, (k, "v"))
        assert list(bulk.scan()) == list(incremental.scan())


class TestHeapModel:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops):
        disk, pool = build_pool()
        heap = HeapStorage(SCHEMA, disk, pool, main_pages=1)
        model: dict[int, tuple] = {}
        next_rowid = 1
        for op, value in ops:
            if op == "insert":
                row = (value, f"v{value}")
                heap.insert(next_rowid, row)
                model[next_rowid] = row
                next_rowid += 1
            elif model:
                victim = sorted(model)[value % len(model)]
                heap.delete(victim)
                del model[victim]
        assert heap.row_count == len(model)
        assert dict(heap.scan()) == model
        for rowid, row in model.items():
            assert heap.fetch(rowid) == row

    @given(count=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_overflow_accounting_consistent(self, count):
        disk, pool = build_pool()
        heap = HeapStorage(SCHEMA, disk, pool, main_pages=2)
        for i in range(count):
            heap.insert(i, (i, "x" * 25))
        assert heap.page_count == heap.main_page_count \
            + heap.overflow_page_count
        assert 0.0 <= heap.overflow_ratio <= 1.0
