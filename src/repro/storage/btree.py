"""Paged B+Tree storage structure.

Used both as a primary table structure (MODIFY ... TO BTREE) and as the
physical representation of secondary indexes, which — as in Ingres —
are simply B-Tree relations of ``(key columns..., locator)`` rows.

Ordering
--------
Rows are ordered by the *effective key*: the values of the key columns,
NULLs-first, with the rowid appended as a tiebreaker so duplicate keys
have a total order.  Internal separator keys carry the rowid too, which
keeps routing deterministic across duplicate runs.  Its comparable
form is one flat tuple, ``(flag, value, ..., rowid)`` with the flag 1
before a value and ``0, None`` for a NULL: NULLs sort first and equal
each other before Python would have to order None.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Sequence

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import FILL_FACTOR
from repro.storage.page import NO_PAGE, InternalPage, LeafPage, page_kind, KIND_LEAF

_NULL = (0, None)
# Appended to a normalized prefix: sorts after every key that has it
# (above the flag or the rowid that follows the prefix there).
_AFTER = (math.inf,)


def _norm_key(values: Iterable[Any]) -> tuple:
    flat: list[Any] = []
    for value in values:
        flat += _NULL if value is None else (1, value)
    return tuple(flat)


def _sep_ekey(sep: tuple[Any, ...]) -> tuple:
    """Normalized form of a separator: key values, then the rowid."""
    return _norm_key(sep[:-1]) + sep[-1:]


class BTreeStorage:
    """A B+Tree over (rowid, row) entries keyed by selected columns.

    Comparisons run on *normalized* keys (``ekeys``).  Each page object
    keeps the ones of its entries (:attr:`LeafPage.ekeys`): computed on
    the first descent into it, maintained by the page's mutators, so a
    lookup bisects a ready list per level instead of normalizing every
    entry it passes; a page that is only scanned never has them.
    """

    structure_name = "btree"

    def __init__(self, schema: TableSchema, key_columns: tuple[str, ...],
                 disk: DiskManager, pool: BufferPool,
                 unique: bool = False) -> None:
        if not key_columns:
            raise StorageError("a B-Tree needs at least one key column")
        self.schema = schema
        self.key_columns = tuple(key_columns)
        self.unique = unique
        self._key_positions = tuple(schema.column_index(c) for c in key_columns)
        self._disk = disk
        self._pool = pool
        self._capacity = int(disk.page_size * FILL_FACTOR)
        # Separator keys append the rowid as an INT column.
        sep_columns = tuple(
            Column(c.name, c.data_type, c.max_length, nullable=True)
            for c in (schema.column(name) for name in key_columns)
        ) + (Column("_rowid", DataType.INT, nullable=False),)
        self._sep_schema = TableSchema(f"_{schema.name}_sep", sep_columns)
        self._rowid_key: dict[int, tuple[Any, ...]] = {}
        root_id = disk.allocate()
        pool.put_new(root_id, LeafPage(schema, self._capacity))
        self._root = root_id
        self._first_leaf = root_id
        self._height = 1
        self._internal_ids: set[int] = set()
        self._leaf_ids: set[int] = {root_id}
        self._row_count = 0

    # -- key helpers -------------------------------------------------------

    def key_of(self, row: tuple[Any, ...]) -> tuple[Any, ...]:
        """Raw key column values of ``row``."""
        return tuple([row[i] for i in self._key_positions])

    def _ekey(self, row: tuple[Any, ...], rowid: int) -> tuple:
        return _norm_key(self.key_of(row)) + (rowid,)

    def _keys_of(self, page: LeafPage | InternalPage) -> list[tuple]:
        """The page's normalized keys, computed if this page object has
        not been descended into before."""
        ekeys = page.ekeys
        if ekeys is None:
            if isinstance(page, LeafPage):
                ekeys = list(map(self._ekey, page.rows, page.rowids))
            else:
                ekeys = list(map(_sep_ekey, page.keys))
            page.ekeys = ekeys
        return ekeys

    # -- page plumbing -----------------------------------------------------

    def _decode(self, raw: bytes) -> LeafPage | InternalPage:
        if page_kind(raw) == KIND_LEAF:
            return LeafPage.from_bytes(raw, self.schema, self._capacity)
        return InternalPage.from_bytes(raw, self._sep_schema, self._capacity)

    def _load(self, page_id: int) -> LeafPage | InternalPage:
        return self._pool.get(page_id, self._decode)

    def _new_leaf(self) -> tuple[int, LeafPage]:
        page_id = self._disk.allocate()
        page = LeafPage(self.schema, self._capacity)
        self._pool.put_new(page_id, page)
        self._leaf_ids.add(page_id)
        return page_id, page

    def _new_internal(self) -> tuple[int, InternalPage]:
        page_id = self._disk.allocate()
        page = InternalPage(self._sep_schema, self._capacity)
        self._pool.put_new(page_id, page)
        self._internal_ids.add(page_id)
        return page_id, page

    # -- geometry ----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        return len(self._leaf_ids) + len(self._internal_ids)

    @property
    def leaf_page_count(self) -> int:
        return len(self._leaf_ids)

    @property
    def height(self) -> int:
        return self._height

    @property
    def overflow_page_count(self) -> int:
        return 0

    @property
    def overflow_ratio(self) -> float:
        return 0.0

    def page_ids(self) -> tuple[int, ...]:
        return tuple(self._leaf_ids | self._internal_ids)

    # -- descent -----------------------------------------------------------

    # staticcheck: hotpath
    def _descend(self, ekey: tuple) -> list[tuple[int, Any, int]]:
        """Walk from the root to the leaf for ``ekey``: one bisection
        per level.

        Returns the path as (page_id, page, child_index) triples; the
        last element is the leaf with child_index -1.
        """
        path: list[tuple[int, Any, int]] = []
        page_id = self._root
        while True:
            page = self._load(page_id)
            if isinstance(page, LeafPage):
                path.append((page_id, page, -1))
                return path
            idx = bisect_right(self._keys_of(page), ekey)
            path.append((page_id, page, idx))
            page_id = page.children[idx]

    # staticcheck: hotpath
    def _find(self, rowid: int) -> tuple[list[tuple[int, Any, int]], int,
                                         tuple]:
        """Descend to ``rowid``'s entry: ``(path, position in the leaf,
        normalized key)``."""
        ekey = _norm_key(self._lookup_key(rowid)) + (rowid,)
        path = self._descend(ekey)
        ekeys = self._keys_of(path[-1][1])
        pos = bisect_left(ekeys, ekey)
        if pos >= len(ekeys) or ekeys[pos] != ekey:
            raise StorageError(f"rowid {rowid} not found in B-Tree")
        return path, pos, ekey

    # -- mutation ----------------------------------------------------------

    def insert(self, rowid: int, row: tuple[Any, ...]) -> None:
        if rowid in self._rowid_key:
            raise StorageError(f"duplicate rowid {rowid}")
        key = self.key_of(row)
        norm = _norm_key(key)
        ekey = norm + (rowid,)
        path = self._descend(ekey)
        leaf_id, leaf, _ = path[-1]
        ekeys = self._keys_of(leaf)
        if self.unique and None not in key:  # NULLs are distinct
            # A shorter tuple sorts before its extensions: the first
            # entry at or after the bare key is the first one having it.
            pos = bisect_left(ekeys, norm)
            if pos < len(ekeys) and ekeys[pos][:-1] == norm:
                raise StorageError(
                    f"duplicate key {key!r} in unique B-Tree {self.schema.name!r}"
                )
        leaf.insert_at(bisect_left(ekeys, ekey), rowid, row, ekey)
        self._pool.put(leaf_id, leaf)
        self._rowid_key[rowid] = key
        self._row_count += 1
        if not leaf.fits(row) or leaf.used_bytes > leaf.capacity:
            self._split_leaf(path)

    def _split_leaf(self, path: list[tuple[int, Any, int]]) -> None:
        leaf_id, leaf, _ = path[-1]
        if len(leaf) < 2:
            raise StorageError("cannot split a leaf with fewer than 2 entries")
        sibling = leaf.split()
        sibling.next_leaf = leaf.next_leaf
        sibling_id = self._disk.allocate()
        self._pool.put_new(sibling_id, sibling)
        self._leaf_ids.add(sibling_id)
        leaf.next_leaf = sibling_id
        self._pool.put(leaf_id, leaf)
        sep = self.key_of(sibling.rows[0]) + (sibling.rowids[0],)
        self._insert_separator(path[:-1], sep, sibling_id)

    def _insert_separator(self, parents: list[tuple[int, Any, int]],
                          sep: tuple[Any, ...], right_child: int) -> None:
        sep_ekey = _sep_ekey(sep)
        if not parents:
            new_root_id, new_root = self._new_internal()
            left_child = self._root
            new_root.add_first_child(left_child)
            new_root.insert_child(0, sep, right_child, sep_ekey)
            self._root = new_root_id
            self._height += 1
            self._pool.put(new_root_id, new_root)
            return
        parent_id, parent, child_idx = parents[-1]
        parent.insert_child(child_idx, sep, right_child, sep_ekey)
        self._pool.put(parent_id, parent)
        if parent.used_bytes > parent.capacity and len(parent.keys) >= 3:
            push_up, sibling = parent.split()
            sibling_id = self._disk.allocate()
            self._pool.put_new(sibling_id, sibling)
            self._internal_ids.add(sibling_id)
            self._insert_separator(parents[:-1], push_up, sibling_id)

    def delete(self, rowid: int) -> tuple[Any, ...]:
        """Remove the entry for ``rowid``; empty leaves are kept (lazy
        deletion), reclaimed only by a rebuild."""
        path, pos, _ekey = self._find(rowid)
        leaf_id, leaf, _ = path[-1]
        _, row = leaf.delete_at(pos)
        self._pool.put(leaf_id, leaf)
        del self._rowid_key[rowid]
        self._row_count -= 1
        return row

    def update(self, rowid: int, row: tuple[Any, ...]) -> None:
        """Replace the row for ``rowid``; re-inserts if the key changed."""
        if self.key_of(row) != self._lookup_key(rowid):
            self.delete(rowid)
            self.insert(rowid, row)
            return
        path, pos, ekey = self._find(rowid)
        leaf_id, leaf, _ = path[-1]
        leaf.delete_at(pos)
        leaf.insert_at(pos, rowid, row, ekey)
        self._pool.put(leaf_id, leaf)
        if leaf.used_bytes > leaf.capacity:
            self._split_leaf(path)

    def _lookup_key(self, rowid: int) -> tuple[Any, ...]:
        try:
            return self._rowid_key[rowid]
        except KeyError:
            raise StorageError(f"rowid {rowid} not found") from None

    def fetch(self, rowid: int) -> tuple[Any, ...]:
        """Read one row by rowid via a root-to-leaf descent."""
        path, pos, _ekey = self._find(rowid)
        return path[-1][1].rows[pos]

    # -- scans ---------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Full scan in key order along the leaf chain."""
        return self.scan_range(None, None)

    def scan_range(self, lo: tuple[Any, ...] | None,
                   hi: tuple[Any, ...] | None,
                   lo_inclusive: bool = True,
                   hi_inclusive: bool = True) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Scan entries whose key prefix lies within [lo, hi] (see
        :meth:`pages`)."""
        for rowids, rows in self.pages(lo, hi, lo_inclusive, hi_inclusive):
            yield from zip(rowids, rows)

    def pages(self, lo: tuple[Any, ...] | None = None,
              hi: tuple[Any, ...] | None = None,
              lo_inclusive: bool = True, hi_inclusive: bool = True,
              ) -> Iterator[tuple[Sequence[int], Sequence[tuple[Any, ...]]]]:
        """The entries whose key prefix lies within [lo, hi] a leaf at a
        time, in key order: each leaf's rowids and rows, in step.

        ``lo``/``hi`` are prefixes of the key columns (or None for an
        open bound); bounds compare on the prefix only, so a one-column
        bound works against a multi-column key.  Both ends are found by
        bisection: entries from the first one at or after ``first`` up
        to the one at or after ``stop``.
        """
        page_id, start, stop = self._first_leaf, 0, None
        if lo is not None:
            first = _norm_key(lo)
            if hi is lo:
                stop = first
            if not lo_inclusive:
                first += _AFTER
            page_id, leaf, _ = self._descend(first)[-1]
            start = bisect_left(self._keys_of(leaf), first)
        if hi is not None:
            if stop is None:
                stop = _norm_key(hi)
            if hi_inclusive:
                stop += _AFTER
        while page_id != NO_PAGE:
            leaf = self._load(page_id)
            end = len(leaf) if stop is None \
                else bisect_left(self._keys_of(leaf), stop)
            yield leaf.rowids[start:end], leaf.rows[start:end]
            if end < len(leaf):
                return
            page_id = leaf.next_leaf
            start = 0

    def seek(self, key_prefix: tuple[Any, ...]) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """Equality lookup on a key prefix."""
        return self.scan_range(key_prefix, key_prefix, True, True)

    # -- bulk operations -----------------------------------------------------

    def bulk_load(self, entries: Iterable[tuple[int, tuple[Any, ...]]]) -> None:
        """Build the tree from scratch out of (rowid, row) pairs.

        Entries are sorted, leaves are packed to the fill factor and the
        internal levels are built bottom-up — the classic B-Tree load
        used by MODIFY ... TO BTREE.
        """
        if self._row_count:
            raise StorageError("bulk_load requires an empty B-Tree")
        ordered = sorted((self._ekey(row, rowid), rowid, row)
                         for rowid, row in entries)
        if self.unique:
            for prev, curr in zip(ordered, ordered[1:]):
                if prev[0][:-1] == curr[0][:-1] \
                        and None not in self.key_of(curr[2]):
                    raise StorageError(
                        f"duplicate key {self.key_of(curr[2])!r} in unique "
                        f"B-Tree {self.schema.name!r}"
                    )
        # Fill leaves left to right, reusing the pre-allocated empty root
        # leaf as the first one.  Pages are marked dirty via put() at the
        # moment they are finalized so eviction during the load is safe;
        # the separator of each finished leaf is recorded at that point
        # rather than by revisiting (possibly evicted) page objects later.
        leaf_id, leaf = self._root, self._load(self._root)
        level: list[tuple[int, tuple[Any, ...] | None]] = []
        first_sep: tuple[Any, ...] | None = None
        for ekey, rowid, row in ordered:
            if not leaf.fits(row) and len(leaf):
                new_id, new_leaf = self._new_leaf()
                leaf.next_leaf = new_id
                self._pool.put(leaf_id, leaf)
                level.append((leaf_id, first_sep))
                leaf_id, leaf = new_id, new_leaf
                first_sep = None
            if first_sep is None:
                first_sep = self.key_of(row) + (rowid,)
            leaf.insert_at(len(leaf), rowid, row, ekey)
            self._rowid_key[rowid] = self.key_of(row)
            self._row_count += 1
        self._pool.put(leaf_id, leaf)
        level.append((leaf_id, first_sep))
        # Build internal levels bottom-up.
        while len(level) > 1:
            next_level: list[tuple[int, tuple[Any, ...] | None]] = []
            node_id, node = self._new_internal()
            node.add_first_child(level[0][0])
            node_first_sep = level[0][1]
            for child_id, sep in level[1:]:
                assert sep is not None  # only the first leaf can be empty
                if not node.fits_key(sep) and node.keys:
                    self._pool.put(node_id, node)
                    next_level.append((node_id, node_first_sep))
                    node_id, node = self._new_internal()
                    node.add_first_child(child_id)
                    node_first_sep = sep
                    continue
                node.insert_child(len(node.keys), sep, child_id)
            self._pool.put(node_id, node)
            next_level.append((node_id, node_first_sep))
            level = next_level
            self._height += 1
        self._root = level[0][0]

    def drop(self) -> None:
        """Free every page of the tree."""
        for page_id in self._leaf_ids | self._internal_ids:
            self._pool.invalidate(page_id)
            self._disk.free(page_id)
        self._leaf_ids.clear()
        self._internal_ids.clear()
        self._rowid_key.clear()
        self._row_count = 0
        self._height = 0
        self._root = NO_PAGE
        self._first_leaf = NO_PAGE
