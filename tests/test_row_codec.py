"""The compiled row codec: a frozen byte format, exact byte accounting
on every page kind, and corrupt pages that fail as ``PageError``."""

import random
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.core.ima import WORKLOAD
from repro.core.workload_db import WorkloadDatabase
from repro.errors import PageError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.hash import HashStorage
from repro.storage.heap import HeapStorage
from repro.storage.page import HeapPage, InternalPage, LeafPage
from repro.storage.record import MAX_NULL_LAYOUTS, MAX_STRING_BYTES, RowCodec


# -- a deliberately naive reference: one column at a time ------------------

def reference_pack(schema, row):
    bitmap = bytearray((len(schema.columns) + 7) // 8)
    body = b""
    for i, (column, value) in enumerate(zip(schema.columns, row)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
        elif column.data_type is DataType.INT:
            body += value.to_bytes(8, "little", signed=True)
        elif column.data_type is DataType.FLOAT:
            body += struct.pack("<d", value)
        elif column.data_type is DataType.BOOL:
            body += b"\x01" if value else b"\x00"
        else:
            encoded = value.encode("utf-8")
            body += len(encoded).to_bytes(2, "little") + encoded
    return bytes(bitmap) + body


def reference_unpack(schema, data, offset=0):
    pos = offset + (len(schema.columns) + 7) // 8
    values = []
    for i, column in enumerate(schema.columns):
        if data[offset + i // 8] & (1 << (i % 8)):
            values.append(None)
        elif column.data_type is DataType.INT:
            values.append(int.from_bytes(data[pos:pos + 8], "little",
                                         signed=True))
            pos += 8
        elif column.data_type is DataType.FLOAT:
            values.append(struct.unpack("<d", data[pos:pos + 8])[0])
            pos += 8
        elif column.data_type is DataType.BOOL:
            values.append(data[pos] != 0)
            pos += 1
        else:
            length = int.from_bytes(data[pos:pos + 2], "little")
            values.append(data[pos + 2:pos + 2 + length].decode("utf-8"))
            pos += 2 + length
    return tuple(values), pos


def reference_heap_page(schema, entries, kind=1, link=-1):
    return struct.pack("<BqH", kind, link, len(entries)) + b"".join(
        struct.pack("<q", rowid) + reference_pack(schema, row)
        for rowid, row in entries)


MIXED = TableSchema("t", (
    Column("id", DataType.INT, nullable=False),
    Column("name", DataType.VARCHAR, 50),
    Column("weight", DataType.FLOAT),
    Column("active", DataType.BOOL),
    Column("notes", DataType.TEXT),
    Column("score", DataType.FLOAT),
    Column("hits", DataType.INT),
    Column("flag", DataType.BOOL),
    Column("tail", DataType.TEXT),
    Column("last", DataType.INT),
))

# Written by the interpreting encoder this codec replaced; the format
# is frozen, so these never change.
GOLDEN = [
    ((1, "héllo", 2.5, True, "日本語", -0.0, -7, False, "", 2**63 - 1),
     "00000100000000000000060068c3a96c6c6f0000000000000440010900e697a5e69c"
     "ace8aa9e0000000000000080f9ffffffffffffff000000ffffffffffffff7f"),
    ((-(2**63), "", float("inf"), False, "x", 1.5, 0, True, "ü", -1),
     "000000000000000000800000000000000000f07f00010078000000000000f83f0000"
     "000000000000010200c3bcffffffffffffffff"),
    ((3, None, None, None, None, None, None, None, None, None),
     "fe030300000000000000"),
    ((4, "a", None, True, None, 0.25, None, False, "zz", None),
     "5402040000000000000001006101000000000000d03f0002007a7a"),
    ((5, None, 1.0, None, "n", None, 9, None, None, 10),
     "aa010500000000000000000000000000f03f01006e09000000000000000a00000000"
     "000000"),
]

_VALUES = {
    DataType.INT: st.integers(-(2**63), 2**63 - 1),
    DataType.FLOAT: st.floats(allow_nan=False),
    DataType.BOOL: st.booleans(),
    DataType.VARCHAR: st.text(max_size=20),
    DataType.TEXT: st.text(max_size=60),
}


@st.composite
def schema_and_rows(draw):
    types = draw(st.lists(st.sampled_from(list(DataType)),
                          min_size=1, max_size=20))
    schema = TableSchema("h", tuple(
        Column(f"c{i}", data_type, 20) for i, data_type in enumerate(types)))
    row = st.tuples(*(st.one_of(st.none(), _VALUES[t]) for t in types))
    return schema, draw(st.lists(row, min_size=1, max_size=4))


class TestFormatIsFrozen:
    @pytest.mark.parametrize("row, golden", GOLDEN)
    def test_golden_bytes(self, row, golden):
        data = bytes.fromhex(golden)
        assert MIXED.codec.pack(row) == data
        assert MIXED.codec.size(row) == len(data)
        decoded, end = MIXED.codec.unpack(data)
        assert (decoded, end) == (row, len(data))
        # -0.0 == 0.0, so compare the sign the bytes carry as well
        assert str(decoded[5]) == str(row[5])

    @given(schema_and_rows())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_the_reference_byte_for_byte(self, drawn):
        schema, rows = drawn
        codec = schema.codec
        blob = b"\xff" * 3  # rows need not start at offset 0
        for row in rows:
            packed = codec.pack(row)
            assert packed == reference_pack(schema, row)
            assert codec.size(row) == len(packed)
            blob += packed
        offset = 3
        for row in rows:
            assert reference_unpack(schema, blob, offset)[0] == row
            decoded, end = codec.unpack(blob, offset)
            assert decoded == row
            assert end == offset + codec.size(row)
            offset = end
        assert offset == len(blob)

    def test_any_nonzero_byte_is_a_true_bool(self):
        schema = TableSchema("b", (Column("b", DataType.BOOL),))
        assert schema.codec.unpack(b"\x00\x07") == ((True,), 2)

    def test_schema_hands_out_one_codec(self):
        assert MIXED.codec is MIXED.codec
        assert isinstance(MIXED.codec, RowCodec)


class TestNullLayoutCache:
    def test_cache_stays_within_its_bound(self):
        schema = TableSchema("n", tuple(
            Column(f"c{i}", DataType.INT) for i in range(10)))
        codec = RowCodec(schema)
        for bits in range(3 * MAX_NULL_LAYOUTS):
            row = tuple(None if bits >> i & 1 else i for i in range(10))
            packed = codec.pack(row)
            assert packed == reference_pack(schema, row)
            assert codec.unpack(packed) == (row, codec.size(row))
            assert len(codec._layouts) <= MAX_NULL_LAYOUTS


class TestSizeRefusesWhatPackRefuses:
    def test_oversized_string_is_refused_at_insert(self):
        row = (1, "x", 1.0, True, "é" * (MAX_STRING_BYTES // 2 + 1),
               1.0, 1, True, "", 1)
        with pytest.raises(StorageError, match="storage limit"):
            MIXED.codec.pack(row)
        with pytest.raises(StorageError, match="storage limit"):
            MIXED.codec.size(row)
        fits = row[:4] + ("é" * (MAX_STRING_BYTES // 2),) + row[5:]
        assert MIXED.codec.size(fits) == len(MIXED.codec.pack(fits))
        # ... so no structure acknowledges a row it could not write back
        disk = DiskManager()
        pool = BufferPool(disk, 8)
        heap = HeapStorage(MIXED, disk, pool)
        heap.insert(1, fits[:4] + ("ok",) + fits[5:])
        with pytest.raises(StorageError, match="storage limit"):
            heap.insert(2, row)
        with pytest.raises(StorageError, match="storage limit"):
            HashStorage(MIXED, ("id",), disk, pool).insert(2, row)
        leaf = LeafPage(MIXED, 4096)
        with pytest.raises(StorageError, match="storage limit"):
            leaf.insert_at(0, 2, row)
        assert len(leaf) == 0 and list(heap.scan())[0][0] == 1
        pool.flush_all()


def _random_row(rng):
    return (rng.randrange(-10**6, 10**6),
            rng.choice([None, "", "ab", "é" * rng.randrange(1, 30)]),
            rng.choice([None, 1.5, -0.0]), rng.choice([None, True, False]),
            rng.choice([None, "n" * rng.randrange(0, 80), "日本"]),
            rng.choice([None, 2.0]), rng.choice([None, 7]),
            rng.choice([None, False]), rng.choice([None, "t"]), 1)


class TestUsedBytesIsTheSerializedLength:
    @pytest.mark.parametrize("seed", range(5))
    def test_heap_page(self, seed):
        rng = random.Random(seed)
        page = HeapPage(MIXED, 4096)
        for step in range(200):
            live = list(page.entries)
            action = rng.choice(["insert", "insert", "delete", "replace"])
            row = _random_row(rng)
            if action == "insert" and page.fits(row):
                page.insert(step, row)
            elif action == "delete" and live:
                page.delete(rng.choice(live))
            elif action == "replace" and live:
                page.replace(rng.choice(live), row)
            assert page.used_bytes == len(page.to_bytes()) <= 4096
        restored = HeapPage.from_bytes(page.to_bytes(), MIXED, 4096)
        assert restored.used_bytes == page.used_bytes
        assert restored.entries == page.entries

    @pytest.mark.parametrize("seed", range(5))
    def test_leaf_page(self, seed):
        rng = random.Random(seed)
        pages = [LeafPage(MIXED, 4096)]
        for step in range(200):
            page = rng.choice(pages)
            action = rng.choice(["insert", "insert", "delete", "split"])
            row = _random_row(rng)
            if action == "insert" and page.fits(row):
                page.insert_at(rng.randrange(len(page) + 1), step, row)
            elif action == "delete" and len(page):
                page.delete_at(rng.randrange(len(page)))
            elif action == "split" and len(page) >= 2:
                pages.append(page.split())
            for each in pages:
                assert each.used_bytes == len(each.to_bytes())
        for each in pages:
            restored = LeafPage.from_bytes(each.to_bytes(), MIXED, 4096)
            assert restored.used_bytes == each.used_bytes
            assert (restored.rowids, restored.rows) == (each.rowids, each.rows)

    @pytest.mark.parametrize("seed", range(5))
    def test_internal_page(self, seed):
        rng = random.Random(seed)
        keys = TableSchema("k", (
            Column("name", DataType.VARCHAR, 50), Column("w", DataType.FLOAT),
            Column("_rowid", DataType.INT, nullable=False)))
        first = InternalPage(keys, 4096)
        first.add_first_child(1000)
        pages = [first]
        for step in range(150):
            page = rng.choice(pages)
            key = (rng.choice([None, "é" * rng.randrange(20), "k"]),
                   rng.choice([None, 0.5]), step)
            if rng.random() < 0.8 and page.fits_key(key):
                page.insert_child(rng.randrange(len(page.keys) + 1), key, step)
            elif len(page.keys) >= 3:
                pages.append(page.split()[1])
            for each in pages:
                assert each.used_bytes == len(each.to_bytes())
                assert len(each.children) == len(each.keys) + 1
        for each in pages:
            restored = InternalPage.from_bytes(each.to_bytes(), keys, 4096)
            assert restored.used_bytes == each.used_bytes
            assert (restored.children, restored.keys) == \
                (each.children, each.keys)


class TestCorruptPagesFailAsPageError:
    ROWS = [(1, "héllo", 2.5, True, "日本語", 1.0, 2, False, "tail", 3),
            (2, None, None, None, "only this", None, None, None, None, None)]

    def _every_prefix(self, data, load):
        whole = load(data)
        for cut in range(len(data)):
            try:
                page = load(data[:cut])
            except PageError:
                continue
            # a cut page may only decode if nothing was lost
            assert page.to_bytes() == data[:cut] and cut == len(data), cut
        return whole

    def test_heap_page_prefixes(self):
        page = HeapPage(MIXED, 4096)
        for rowid, row in enumerate(self.ROWS):
            page.insert(rowid, row)
        whole = self._every_prefix(
            page.to_bytes(), lambda raw: HeapPage.from_bytes(raw, MIXED, 4096))
        assert whole.entries == page.entries

    def test_leaf_page_prefixes(self):
        page = LeafPage(MIXED, 4096)
        for rowid, row in enumerate(self.ROWS):
            page.insert_at(rowid, rowid, row)
        whole = self._every_prefix(
            page.to_bytes(), lambda raw: LeafPage.from_bytes(raw, MIXED, 4096))
        assert whole.rows == page.rows

    def test_internal_page_prefixes(self):
        keys = TableSchema("k", (Column("name", DataType.TEXT),
                                 Column("_rowid", DataType.INT)))
        page = InternalPage(keys, 4096)
        page.add_first_child(10)
        page.insert_child(0, ("héllo", 1), 20)
        page.insert_child(1, ("tail string", 2), 30)
        whole = self._every_prefix(
            page.to_bytes(),
            lambda raw: InternalPage.from_bytes(raw, keys, 4096))
        assert whole.keys == page.keys

    def test_error_names_the_page_kind_and_entry(self):
        page = HeapPage(MIXED, 4096)
        for rowid, row in enumerate(self.ROWS):
            page.insert(rowid, row)
        data = page.to_bytes()
        with pytest.raises(PageError, match="heap page at entry 1"):
            HeapPage.from_bytes(data[:-12], MIXED, 4096)
        with pytest.raises(PageError, match="heap page"):
            HeapPage.from_bytes(data[:-1], MIXED, 4096)  # inside the last string
        bad_utf8 = data.replace("héllo".encode(), b"h\xff\xfello")
        with pytest.raises(PageError, match="heap page at entry 0"):
            HeapPage.from_bytes(bad_utf8, MIXED, 4096)


class TestWorkloadDbWrittenByTheOldEncoder:
    def test_pages_are_byte_identical_and_read_back(self):
        rng = random.Random(7)
        workload_db = WorkloadDatabase()
        rows = [(rng.randrange(2**40), rng.randrange(8), rng.random(),
                 rng.random(), rng.random(), rng.random(), 1.0, 2.0, 3.0, 4.0,
                 rng.randrange(100), rng.randrange(10), rng.randrange(1000),
                 rng.randrange(5), rng.choice(["", "idx_a", "idx_a,idx_ü"]),
                 rng.random()) for _ in range(300)]
        workload_db.append("wl_workload", rows, captured_at=12.5,
                           seqs=range(1, len(rows) + 1))
        workload_db.flush()
        database = workload_db.database
        storage = database.storage_for("wl_workload")
        stored = list(storage.scan())
        assert [row for _, row in stored] == [
            (12.5, *row, seq) for seq, row in enumerate(rows, 1)]
        capacity = int(database.disk.page_size * 0.9)
        remaining = iter(stored)
        page_ids = storage._store.page_ids()
        assert len(page_ids) > 1
        for page_id in page_ids:
            on_disk = database.disk.read(page_id)
            page = HeapPage.from_bytes(on_disk, WORKLOAD.wl_schema, capacity)
            entries = [next(remaining) for _ in range(len(page))]
            # what the old encoder would have written for these entries
            old_bytes = reference_heap_page(WORKLOAD.wl_schema, entries)
            assert on_disk == old_bytes
            assert list(page.items()) == entries
        assert next(remaining, None) is None
