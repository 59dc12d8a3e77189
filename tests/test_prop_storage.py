"""Property-based tests for storage structures (hypothesis)."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import BufferPoolError
from repro.storage.btree import BTreeStorage
from repro.storage.buffer_pool import BufferPool
from repro.storage import disk as disk_module
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


def small_disk(page_size):
    """A disk of ``page_size``-byte pages, so a few rows fill one."""
    with mock.patch.object(disk_module, "PAGE_SIZE", page_size):
        return DiskManager()


def build_pool(capacity=6):
    disk = small_disk(512)
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


# -- page-owned keys ---------------------------------------------------------

KEYED_SCHEMA = TableSchema("keyed", (
    Column("k", DataType.INT),
    Column("s", DataType.VARCHAR, 8),
    Column("p", DataType.VARCHAR, 30),
))
_K = st.one_of(st.none(), st.integers(-8, 8))
_S = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b"]))
_PICK = st.integers(0, 1_000_000)

key_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _K, _S),
        st.tuples(st.just("insert"), _K, _S),
        st.tuples(st.just("delete"), _PICK),
        st.tuples(st.just("update"), _PICK),           # key unchanged
        st.tuples(st.just("move"), _PICK, _K, _S),     # key changed
        st.tuples(st.just("evict")),
        st.tuples(st.just("rebuild")),                 # bulk_load
        st.tuples(st.just("range"), _K, _K, _S),
    ),
    max_size=70,
)


def _model_norm(values):
    return tuple((0,) if v is None else (1, v) for v in values)


class TestBTreePageKeys:
    """``LeafPage.ekeys`` / ``InternalPage.ekeys`` are maintained, never
    recomputed: whatever happens to a page, the list must equal the one
    computed from the page's rows — and every keyed read, which bisects
    over it, must agree with a sorted-list model."""

    @staticmethod
    def _check_pages(tree, pool):
        from repro.storage import btree
        keyed = 0
        for page_id in tree.page_ids():
            page = pool.peek(page_id)
            if page is None or page.ekeys is None:
                continue
            keyed += 1
            if hasattr(page, "rows"):
                fresh = [tree._ekey(row, rowid)
                         for rowid, row in zip(page.rowids, page.rows)]
            else:
                fresh = [btree._sep_ekey(sep) for sep in page.keys]
            assert page.ekeys == fresh
        return keyed

    @given(ops=key_ops, width=st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_page_keys_are_never_stale(self, ops, width):
        # 256-byte pages: a leaf holds ~4 of these rows and an internal
        # node ~9 separators, so 40 inserts split both kinds.
        disk = small_disk(256)
        pool = BufferPool(disk, 5)
        key = ("k", "s")[:width]
        tree = BTreeStorage(KEYED_SCHEMA, key, disk, pool)
        model: dict[int, tuple] = {}
        next_rowid = 1

        def order(rowid):
            return _model_norm(model[rowid][:width]), rowid

        # Enough rows first that leaves and internal nodes have split.
        grown = [("insert", (i * 7) % 17 - 8 if i % 9 else None,
                  (None, "", "a", "ab", "b")[i % 5]) for i in range(45)]
        for op, *args in grown + ops:
            if op == "insert":
                model[next_rowid] = (*args, f"p{next_rowid:<28}")
                tree.insert(next_rowid, model[next_rowid])
                next_rowid += 1
            elif op == "evict":
                pool.clear()  # written back; every page reloads keyless
            elif op == "rebuild":
                tree.drop()
                tree = BTreeStorage(KEYED_SCHEMA, key, disk, pool)
                assert list(tree.seek((0,))) == []  # keys the empty root
                tree.bulk_load(list(model.items()))
            elif op == "range":
                lo, hi = (args[0],), (args[1], args[2])[:width]
                for lo_inc in (True, False):
                    for hi_inc in (True, False):
                        got = list(tree.scan_range(lo, hi, lo_inc, hi_inc))
                        want = [
                            (rowid, model[rowid])
                            for rowid in sorted(model, key=order)
                            if (_model_norm(model[rowid][:1])
                                > _model_norm(lo)
                                or lo_inc and model[rowid][:1] == lo)
                            and (_model_norm(model[rowid][:width])
                                 < _model_norm(hi)
                                 or hi_inc and model[rowid][:width] == hi)]
                        assert got == want
            elif model:
                victim = sorted(model)[args[0] % len(model)]
                if op == "delete":
                    assert tree.delete(victim) == model.pop(victim)
                elif op == "update":
                    model[victim] = model[victim][:2] + (f"u{len(ops)}",)
                    tree.update(victim, model[victim])
                else:
                    model[victim] = (args[1], args[2], model[victim][2])
                    tree.update(victim, model[victim])
            self._check_pages(tree, pool)
            assert tree.row_count == len(model)
        ordered = sorted(model, key=order)
        assert list(tree.scan()) == [(r, model[r]) for r in ordered]
        for rowid, row in model.items():
            assert tree.fetch(rowid) == row
            assert (rowid, row) in list(tree.seek(row[:width]))
            assert [r for r, _ in tree.seek(row[:1])] == [
                r for r in ordered if model[r][:1] == row[:1]]
        self._check_pages(tree, pool)

    def test_splits_keep_both_halves_keyed(self):
        disk, pool = build_pool(capacity=64)
        tree = BTreeStorage(KEYED_SCHEMA, ("k",), disk, pool)
        for i in range(400):
            tree.insert(i + 1, ((i * 37) % 400, "s", "payload" * 3))
        assert tree.height >= 3  # leaf and internal splits happened
        # every page was descended into while it was resident
        assert self._check_pages(tree, pool) == tree.page_count
        assert [row[0] for _r, row in tree.scan()] == list(range(400))

    def test_scanned_pages_stay_keyless(self):
        disk, pool = build_pool(capacity=64)
        tree = BTreeStorage(KEYED_SCHEMA, ("k",), disk, pool)
        tree.bulk_load([(i + 1, (i, "s", "p")) for i in range(300)])
        assert sum(1 for _ in tree.scan()) == 300
        assert self._check_pages(tree, pool) == 0
        assert [r for r, _ in tree.seek((150,))] == [151]
        assert self._check_pages(tree, pool) == tree.height


class _VersionedPage:
    """A page whose whole content is one version number."""

    def __init__(self, version):
        self.version = version

    @classmethod
    def load(cls, raw):
        return cls(int(raw) if raw else 0)

    def to_bytes(self):
        return str(self.version).encode()


class _RecordingDisk(DiskManager):
    """A disk that remembers what was last written to each page."""

    def __init__(self):
        super().__init__()
        self.written: dict[int, bytes] = {}

    def write(self, page_id, data):
        super().write(page_id, data)
        self.written[page_id] = data

    def version(self, page_id):
        return _VersionedPage.load(self.written.get(page_id, b"")).version


POOL_PAGES = 9

# Mostly reads, so that pages come back as ghosts and enter Am; the
# page index is ignored by flush_all and clear.
pool_ops = st.lists(
    st.tuples(st.sampled_from(["get"] * 6 + [
        "put_new", "put", "mark_dirty", "invalidate", "flush_all", "clear"]),
        st.integers(0, POOL_PAGES - 1)),
    min_size=40, max_size=150,
)


class TestBufferPoolModel:
    """The pool against a dict of each page's newest version: whatever
    the replacement policy evicts, a read sees the newest content and a
    flush puts it on disk."""

    @given(ops=pool_ops, capacity=st.integers(1, 6))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict_model(self, ops, capacity):
        disk = _RecordingDisk()
        page_ids = [disk.allocate() for _ in range(POOL_PAGES)]
        pool = BufferPool(disk, capacity)
        newest = dict.fromkeys(page_ids, 0)
        next_version = 1
        for op, index in ops:
            page_id = page_ids[index]
            if op == "get":
                page = pool.get(page_id, _VersionedPage.load)
                assert page.version == newest[page_id]
            elif op in ("put_new", "put"):
                getattr(pool, op)(page_id, _VersionedPage(next_version))
                newest[page_id] = next_version
                next_version += 1
            elif op == "mark_dirty":
                page = pool.peek(page_id)
                if page is None:
                    with pytest.raises(BufferPoolError):
                        pool.mark_dirty(page_id)
                else:
                    page.version = newest[page_id] = next_version
                    next_version += 1
                    pool.mark_dirty(page_id)
            elif op == "invalidate":
                # The page is freed and its id reused with new content:
                # the pool must not serve what it held.
                pool.invalidate(page_id)
                disk.write(page_id, _VersionedPage(next_version).to_bytes())
                newest[page_id] = next_version
                next_version += 1
            else:
                getattr(pool, op)()
                assert {p: disk.version(p) for p in page_ids} == newest
                if op == "clear":
                    assert pool.cached_page_count == 0
            resident = {p: page.version for p in page_ids
                        if (page := pool.peek(p)) is not None}
            assert resident == {p: newest[p] for p in resident}
            assert pool.cached_page_count == len(resident) <= capacity
            assert pool.stats().misses == disk.counters().reads


def test_keyed_update_is_logarithmic_and_unparsed(monkeypatch):
    """Count-based, no clock: once its shape is prepared and the pages
    it descends into carry their keys, ``update ... where pk = N`` is
    never parsed and normalizes at most height + 1 keys (the seek's
    bound and the write's own descent; the secondary index, whose
    column did not change, is not touched)."""
    from repro.engine import EngineInstance
    from repro.engine import session as session_module
    from repro.storage import btree

    engine = EngineInstance()
    engine.create_database("d")
    session = engine.connect("d")
    session.execute("create table t (id int not null, k int, v float, "
                    "primary key (id))")
    for start in range(0, 1500, 100):
        session.execute("insert into t values " + ", ".join(
            f"({i}, {i % 50}, 0.0)" for i in range(start, start + 100)))
    session.execute("modify t to btree")
    session.execute("create index t_k on t (k)")
    tree = session.database.storage_for("t").btree
    assert tree.height >= 2
    for i in range(0, 1500, 3):  # prepares the shape, keys every leaf
        session.execute(f"update t set v = v + 0.5 where id = {i}")

    calls = {"norm": 0}
    norm_key = btree._norm_key

    def counting(values):
        calls["norm"] += 1
        return norm_key(values)

    monkeypatch.setattr(btree, "_norm_key", counting)
    monkeypatch.setattr(session_module, "parse_statement",
                        lambda text: 1 / 0)
    monkeypatch.setattr(session.database.index_storage_for("t_k"), "_load",
                        lambda page_id: 1 / 0)
    for i in (7, 700, 1499):
        calls["norm"] = 0
        assert session.execute(
            f"update t set v = v + 0.5 where id = {i}").rowcount == 1
        assert 0 < calls["norm"] <= tree.height + 1
    monkeypatch.undo()
    assert session.execute(  # 7 was not in the keying pass, 1497 was
        "select id, v from t where id in (7, 700, 1497, 1499)").rows \
        == [(7, 0.5), (700, 0.5), (1497, 0.5), (1499, 0.5)]
