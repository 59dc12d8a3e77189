"""Page layouts: heap data pages and B-Tree node pages.

Every page knows how to serialize itself (``to_bytes``) and carries a
reference to the schema needed to do so; the buffer pool calls
``to_bytes`` when evicting a dirty page and the owning storage structure
supplies a loader for cache misses.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Iterator

from repro.catalog.schema import TableSchema
from repro.errors import PageError

_HEADER = struct.Struct("<BqH")  # page kind, link, entry count
_ROWID = struct.Struct("<q")
_CHILD = struct.Struct("<q")

KIND_HEAP = 1
KIND_LEAF = 2
KIND_INTERNAL = 3

NO_PAGE = -1

_KIND_NAMES = {KIND_HEAP: "heap", KIND_LEAF: "leaf", KIND_INTERNAL: "internal"}
# What decoding bytes that are not a whole page raises underneath.
_CORRUPT = (struct.error, UnicodeDecodeError, IndexError)


def _read_page(data: bytes, kind: int, schema: TableSchema,
               ) -> tuple[int, list[int], list[tuple[Any, ...]], int]:
    """Decode a serialized page of ``kind``: ``(link, ids, rows, bytes
    consumed)``.  ``ids`` are the rowids in front of a heap or leaf
    page's rows, or the children in front of an internal page's keys;
    the bytes consumed are the page's ``used_bytes``, so no decoded row
    is sized again."""
    name = _KIND_NAMES[kind]
    unpack, rowid_at = schema.codec.unpack, _ROWID.unpack_from
    ids: list[int] = []
    rows: list[tuple[Any, ...]] = []
    try:
        found, link, count = _HEADER.unpack_from(data, 0)
        if found != kind:
            raise PageError(f"expected {name} page, found kind {found}")
        pos = _HEADER.size
        keyed = kind != KIND_INTERNAL
        if not keyed:
            ids += struct.unpack_from(f"<{count + 1}q", data, pos)
            pos += _CHILD.size * len(ids)
        for _ in range(count):
            if keyed:
                ids += rowid_at(data, pos)
                pos += _ROWID.size
            row, pos = unpack(data, pos)
            rows.append(row)
    except _CORRUPT as exc:
        raise PageError(
            f"corrupt {name} page at entry {len(rows)}: {exc}") from exc
    if pos > len(data):
        raise PageError(f"corrupt {name} page: entry {len(rows) - 1} ends "
                        f"at byte {pos} of {len(data)}")
    return link, ids, rows, pos


def _write_entries(kind: int, link: int, schema: TableSchema,
                   entries: Iterable[tuple[int, tuple[Any, ...]]],
                   count: int) -> bytes:
    """Serialize a heap or leaf page: header, then rowid + row each."""
    pack, pack_rowid = schema.codec.pack, _ROWID.pack
    parts = [_HEADER.pack(kind, link, count)]
    for rowid, row in entries:
        parts.append(pack_rowid(rowid))
        parts.append(pack(row))
    return b"".join(parts)


class HeapPage:
    """A heap data page: an append-ordered set of (rowid, row) entries."""

    kind = KIND_HEAP

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.entries: dict[int, tuple[Any, ...]] = {}
        self.used_bytes = _HEADER.size
        self._row_size = schema.codec.size

    def has_room(self, size: int) -> bool:
        """True if a row of ``size`` serialized bytes fits into the
        remaining free space (the one page-fit rule: single-row and
        batch inserts both come through here)."""
        return self.used_bytes + _ROWID.size + size <= self.capacity

    def fits(self, row: tuple[Any, ...]) -> bool:
        """True if ``row`` fits into the remaining free space."""
        return self.has_room(self._row_size(row))

    def insert(self, rowid: int, row: tuple[Any, ...],
               size: int | None = None) -> None:
        """Add an entry; ``size`` is the row's serialized size when the
        caller has already computed it."""
        if size is None:
            size = self._row_size(row)
        if rowid in self.entries:
            raise PageError(f"duplicate rowid {rowid} on heap page")
        if not self.has_room(size):
            raise PageError("row does not fit on heap page")
        self.entries[rowid] = row
        self.used_bytes += _ROWID.size + size

    def delete(self, rowid: int) -> tuple[Any, ...]:
        row = self.get(rowid)
        del self.entries[rowid]
        self.used_bytes -= _ROWID.size + self._row_size(row)
        return row

    def get(self, rowid: int) -> tuple[Any, ...]:
        try:
            return self.entries[rowid]
        except KeyError:
            raise PageError(f"rowid {rowid} not on this heap page") from None

    def replace(self, rowid: int, row: tuple[Any, ...]) -> bool:
        """Replace a row in place; return False if the new row does not fit."""
        delta = self._row_size(row) - self._row_size(self.get(rowid))
        if self.used_bytes + delta > self.capacity:
            return False
        self.entries[rowid] = row
        self.used_bytes += delta
        return True

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        return iter(self.entries.items())

    def to_bytes(self) -> bytes:
        return _write_entries(self.kind, NO_PAGE, self.schema,
                              self.entries.items(), len(self.entries))

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,
                   capacity: int) -> "HeapPage":
        page = cls(schema, capacity)
        _link, rowids, rows, page.used_bytes = _read_page(data, cls.kind, schema)
        page.entries = dict(zip(rowids, rows))
        return page


class LeafPage:
    """A B-Tree leaf: (rowid, row) entries sorted by the tree key.

    The sort order is maintained by :class:`~repro.storage.btree.BTreeStorage`,
    which owns key extraction and comparison; the page itself is a plain
    ordered container with byte accounting.  ``ekeys`` is the tree's
    normalised key of every entry, parallel to ``rows``: None until the
    tree first descends into this page object, kept in step by every
    mutator from then on, gone with the object when the pool evicts it.
    """

    kind = KIND_LEAF

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.rowids: list[int] = []
        self.rows: list[tuple[Any, ...]] = []
        self.ekeys: list[tuple] | None = None
        self.next_leaf: int = NO_PAGE
        self.used_bytes = _HEADER.size
        self._row_size = schema.codec.size

    def __len__(self) -> int:
        return len(self.rows)

    def fits(self, row: tuple[Any, ...]) -> bool:
        needed = _ROWID.size + self._row_size(row)
        return self.used_bytes + needed <= self.capacity

    def insert_at(self, position: int, rowid: int, row: tuple[Any, ...],
                  ekey: tuple | None = None) -> None:
        self.used_bytes += _ROWID.size + self._row_size(row)
        self.rowids.insert(position, rowid)
        self.rows.insert(position, row)
        if self.ekeys is not None:
            self.ekeys.insert(position, ekey)

    def delete_at(self, position: int) -> tuple[int, tuple[Any, ...]]:
        rowid = self.rowids.pop(position)
        row = self.rows.pop(position)
        if self.ekeys is not None:
            del self.ekeys[position]
        self.used_bytes -= _ROWID.size + self._row_size(row)
        return rowid, row

    def split(self) -> "LeafPage":
        """Move the upper half of the entries to a new sibling page."""
        sibling = LeafPage(self.schema, self.capacity)
        middle = len(self.rows) // 2
        sibling.rowids = self.rowids[middle:]
        sibling.rows = self.rows[middle:]
        moved = sum(map(self._row_size, sibling.rows)) \
            + _ROWID.size * len(sibling.rows)
        sibling.used_bytes += moved
        self.used_bytes -= moved
        del self.rowids[middle:]
        del self.rows[middle:]
        if self.ekeys is not None:
            sibling.ekeys = self.ekeys[middle:]
            del self.ekeys[middle:]
        return sibling

    def to_bytes(self) -> bytes:
        return _write_entries(self.kind, self.next_leaf, self.schema,
                              zip(self.rowids, self.rows), len(self.rows))

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,
                   capacity: int) -> "LeafPage":
        page = cls(schema, capacity)
        page.next_leaf, page.rowids, page.rows, page.used_bytes = _read_page(
            data, cls.kind, schema)
        return page


class InternalPage:
    """A B-Tree internal node: separator keys and child page ids.

    With ``n`` children there are ``n - 1`` keys; child ``i`` holds
    entries strictly below key ``i`` (and child ``n-1`` the rest).
    Separator keys are serialized through a key schema derived from the
    indexed columns.  ``ekeys`` is their normalised form, parallel to
    ``keys``, under the same rules as :attr:`LeafPage.ekeys`.
    """

    kind = KIND_INTERNAL

    def __init__(self, key_schema: TableSchema, capacity: int) -> None:
        self.key_schema = key_schema
        self.capacity = capacity
        self.keys: list[tuple[Any, ...]] = []
        self.children: list[int] = []
        self.ekeys: list[tuple] | None = None
        self.used_bytes = _HEADER.size
        self._key_size = key_schema.codec.size

    def __len__(self) -> int:
        return len(self.children)

    def fits_key(self, key: tuple[Any, ...]) -> bool:
        needed = _CHILD.size + self._key_size(key)
        return self.used_bytes + needed <= self.capacity

    def add_first_child(self, child: int) -> None:
        """Give an empty node its leftmost child, the one without a
        separator key."""
        self.children.append(child)
        self.used_bytes += _CHILD.size

    def insert_child(self, position: int, key: tuple[Any, ...],
                     child: int, ekey: tuple | None = None) -> None:
        """Insert separator ``key`` at ``position`` and the child page
        that holds entries >= key at ``position + 1``."""
        self.used_bytes += _CHILD.size + self._key_size(key)
        self.keys.insert(position, key)
        self.children.insert(position + 1, child)
        if self.ekeys is not None:
            self.ekeys.insert(position, ekey)

    def split(self) -> tuple[tuple[Any, ...], "InternalPage"]:
        """Split, returning (separator pushed up, new right sibling)."""
        sibling = InternalPage(self.key_schema, self.capacity)
        middle = len(self.keys) // 2
        push_up = self.keys[middle]
        sibling.keys = self.keys[middle + 1 :]
        sibling.children = self.children[middle + 1 :]
        self.keys = self.keys[:middle]
        self.children = self.children[: middle + 1]
        if self.ekeys is not None:
            sibling.ekeys = self.ekeys[middle + 1 :]
            del self.ekeys[middle:]
        moved = sum(map(self._key_size, sibling.keys)) \
            + _CHILD.size * len(sibling.children)
        sibling.used_bytes += moved
        self.used_bytes -= moved + self._key_size(push_up)
        return push_up, sibling

    def to_bytes(self) -> bytes:
        pack = self.key_schema.codec.pack
        return b"".join([
            _HEADER.pack(self.kind, NO_PAGE, len(self.keys)),
            struct.pack(f"<{len(self.children)}q", *self.children),
            *map(pack, self.keys)])

    @classmethod
    def from_bytes(cls, data: bytes, key_schema: TableSchema,
                   capacity: int) -> "InternalPage":
        page = cls(key_schema, capacity)
        _link, page.children, page.keys, page.used_bytes = _read_page(
            data, cls.kind, key_schema)
        return page


def page_kind(data: bytes) -> int:
    """Return the kind byte of a serialized page."""
    if not data:
        raise PageError("cannot determine the kind of an empty page")
    return data[0]
