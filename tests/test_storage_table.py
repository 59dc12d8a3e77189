"""Tests for the TableStorage facade (incl. MODIFY rebuilds)."""

import pytest

from repro.catalog.schema import StorageStructure
from repro.errors import StorageError, TypeMismatchError
from repro.storage.table_storage import TableStorage


@pytest.fixture
def table(people_schema, disk, pool):
    return TableStorage(people_schema, disk, pool, main_pages=2)


def fill(table, count):
    for i in range(1, count + 1):
        table.insert((i, f"p{i}", 20 + i % 40, i * 1.5))


class TestTableStorage:
    def test_insert_assigns_increasing_rowids(self, table):
        first = table.insert((1, "a", 20, 1.0))
        second = table.insert((2, "b", 21, 2.0))
        assert second == first + 1

    def test_row_validation(self, table):
        with pytest.raises(TypeMismatchError):
            table.insert(("not-int", "a", 20, 1.0))
        with pytest.raises(TypeMismatchError):
            table.insert((None, "a", 20, 1.0))  # PK column is NOT NULL

    def test_float_coercion_on_insert(self, table):
        rowid = table.insert((1, "a", 20, 3))
        assert table.fetch(rowid)[3] == 3.0

    def test_modification_counter(self, table):
        fill(table, 5)
        assert table.modifications_since_stats == 5
        rowid = table.insert((99, "x", 1, 1.0))
        table.update(rowid, (99, "y", 1, 1.0))
        table.delete(rowid)
        assert table.modifications_since_stats == 8

    def test_heap_has_no_keyed_access(self, table):
        with pytest.raises(StorageError):
            _ = table.btree


class TestModify:
    def test_modify_to_btree_preserves_rows_and_rowids(self, table):
        fill(table, 300)
        before = dict(table.scan())
        table.modify_to(StorageStructure.BTREE)
        assert table.structure is StorageStructure.BTREE
        assert dict(table.scan()) == before
        assert table.btree.key_columns == ("id",)

    def test_modify_clears_overflow(self, table):
        fill(table, 300)
        assert table.overflow_page_count > 0
        table.modify_to(StorageStructure.BTREE)
        assert table.overflow_page_count == 0

    def test_modify_back_to_heap(self, table):
        fill(table, 100)
        table.modify_to(StorageStructure.BTREE)
        table.modify_to(StorageStructure.HEAP, main_pages=50)
        assert table.structure is StorageStructure.HEAP
        assert table.row_count == 100
        assert table.overflow_page_count == 0  # enough main pages now

    def test_modify_compacts_deleted_space(self, table, disk):
        fill(table, 300)
        for rowid, _row in list(table.scan())[:200]:
            table.delete(rowid)
        pages_before = table.page_count
        table.modify_to(StorageStructure.HEAP, main_pages=2)
        assert table.page_count < pages_before

    def test_keyed_access_after_modify(self, table):
        fill(table, 100)
        table.modify_to(StorageStructure.BTREE)
        got = list(table.btree.seek((42,)))
        assert len(got) == 1
        assert got[0][1][1] == "p42"

    def test_rowids_continue_after_modify(self, table):
        fill(table, 10)
        table.modify_to(StorageStructure.BTREE)
        new_rowid = table.insert((1000, "new", 30, 1.0))
        assert new_rowid == 11

    def test_unique_pk_enforced_on_btree(self, table):
        fill(table, 10)
        table.modify_to(StorageStructure.BTREE)
        with pytest.raises(StorageError):
            table.insert((5, "dup", 1, 1.0))

    def test_data_bytes(self, table, disk):
        fill(table, 100)
        assert table.data_bytes == table.page_count * disk.page_size
