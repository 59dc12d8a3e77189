"""Page layouts: heap data pages and B-Tree node pages.

Every page knows how to serialize itself (``to_bytes``) and carries a
reference to the schema needed to do so; the buffer pool calls
``to_bytes`` when evicting a dirty page and the owning storage structure
supplies a loader for cache misses.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.catalog.schema import TableSchema
from repro.errors import PageError
from repro.storage.record import pack_row, row_size, unpack_row

_HEADER = struct.Struct("<BqH")  # page kind, link, entry count
_ROWID = struct.Struct("<q")
_CHILD = struct.Struct("<q")

KIND_HEAP = 1
KIND_LEAF = 2
KIND_INTERNAL = 3

NO_PAGE = -1


class HeapPage:
    """A heap data page: an append-ordered set of (rowid, row) entries."""

    kind = KIND_HEAP

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.entries: dict[int, tuple[Any, ...]] = {}
        self.used_bytes = _HEADER.size

    def has_room(self, size: int) -> bool:
        """True if a row of ``size`` serialized bytes fits into the
        remaining free space (the one page-fit rule: single-row and
        batch inserts both come through here)."""
        return self.used_bytes + _ROWID.size + size <= self.capacity

    def fits(self, row: tuple[Any, ...]) -> bool:
        """True if ``row`` fits into the remaining free space."""
        return self.has_room(row_size(self.schema, row))

    def insert(self, rowid: int, row: tuple[Any, ...],
               size: int | None = None) -> None:
        """Add an entry; ``size`` is ``row_size(schema, row)`` when the
        caller has already computed it."""
        if size is None:
            size = row_size(self.schema, row)
        if rowid in self.entries:
            raise PageError(f"duplicate rowid {rowid} on heap page")
        if not self.has_room(size):
            raise PageError("row does not fit on heap page")
        self.entries[rowid] = row
        self.used_bytes += _ROWID.size + size

    def delete(self, rowid: int) -> tuple[Any, ...]:
        try:
            row = self.entries.pop(rowid)
        except KeyError:
            raise PageError(f"rowid {rowid} not on this heap page") from None
        self.used_bytes -= _ROWID.size + row_size(self.schema, row)
        return row

    def get(self, rowid: int) -> tuple[Any, ...]:
        try:
            return self.entries[rowid]
        except KeyError:
            raise PageError(f"rowid {rowid} not on this heap page") from None

    def replace(self, rowid: int, row: tuple[Any, ...]) -> bool:
        """Replace a row in place; return False if the new row does not fit."""
        old = self.get(rowid)
        delta = row_size(self.schema, row) - row_size(self.schema, old)
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
        parts = [_HEADER.pack(self.kind, NO_PAGE, len(self.entries))]
        for rowid, row in self.entries.items():
            parts.append(_ROWID.pack(rowid))
            parts.append(pack_row(self.schema, row))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,
                   capacity: int) -> "HeapPage":
        kind, _link, count = _HEADER.unpack_from(data, 0)
        if kind != KIND_HEAP:
            raise PageError(f"expected heap page, found kind {kind}")
        page = cls(schema, capacity)
        pos = _HEADER.size
        for _ in range(count):
            (rowid,) = _ROWID.unpack_from(data, pos)
            row, pos = unpack_row(schema, data, pos + _ROWID.size)
            page.entries[rowid] = row
        # Every entry is rowid + packed row, so the bytes consumed are
        # the bytes used: no need to size each decoded row again.
        page.used_bytes = pos
        return page


class LeafPage:
    """A B-Tree leaf: (rowid, row) entries sorted by the tree key.

    The sort order is maintained by :class:`~repro.storage.btree.BTreeStorage`,
    which owns key extraction and comparison; the page itself is a plain
    ordered container with byte accounting.
    """

    kind = KIND_LEAF

    def __init__(self, schema: TableSchema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self.rowids: list[int] = []
        self.rows: list[tuple[Any, ...]] = []
        self.next_leaf: int = NO_PAGE
        self.used_bytes = _HEADER.size

    def __len__(self) -> int:
        return len(self.rows)

    def fits(self, row: tuple[Any, ...]) -> bool:
        needed = _ROWID.size + row_size(self.schema, row)
        return self.used_bytes + needed <= self.capacity

    def insert_at(self, position: int, rowid: int, row: tuple[Any, ...]) -> None:
        self.rowids.insert(position, rowid)
        self.rows.insert(position, row)
        self.used_bytes += _ROWID.size + row_size(self.schema, row)

    def delete_at(self, position: int) -> tuple[int, tuple[Any, ...]]:
        rowid = self.rowids.pop(position)
        row = self.rows.pop(position)
        self.used_bytes -= _ROWID.size + row_size(self.schema, row)
        return rowid, row

    def split(self) -> "LeafPage":
        """Move the upper half of the entries to a new sibling page."""
        sibling = LeafPage(self.schema, self.capacity)
        middle = len(self.rows) // 2
        for rowid, row in zip(self.rowids[middle:], self.rows[middle:]):
            sibling.rowids.append(rowid)
            sibling.rows.append(row)
            size = _ROWID.size + row_size(self.schema, row)
            sibling.used_bytes += size
            self.used_bytes -= size
        del self.rowids[middle:]
        del self.rows[middle:]
        return sibling

    def to_bytes(self) -> bytes:
        parts = [_HEADER.pack(self.kind, self.next_leaf, len(self.rows))]
        for rowid, row in zip(self.rowids, self.rows):
            parts.append(_ROWID.pack(rowid))
            parts.append(pack_row(self.schema, row))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, schema: TableSchema,
                   capacity: int) -> "LeafPage":
        kind, next_leaf, count = _HEADER.unpack_from(data, 0)
        if kind != KIND_LEAF:
            raise PageError(f"expected leaf page, found kind {kind}")
        page = cls(schema, capacity)
        page.next_leaf = next_leaf
        pos = _HEADER.size
        for _ in range(count):
            (rowid,) = _ROWID.unpack_from(data, pos)
            row, pos = unpack_row(schema, data, pos + _ROWID.size)
            page.rowids.append(rowid)
            page.rows.append(row)
        page.used_bytes = pos  # rowid + packed row per entry, as above
        return page


class InternalPage:
    """A B-Tree internal node: separator keys and child page ids.

    With ``n`` children there are ``n - 1`` keys; child ``i`` holds
    entries strictly below key ``i`` (and child ``n-1`` the rest).
    Separator keys are serialized through a key schema derived from the
    indexed columns.
    """

    kind = KIND_INTERNAL

    def __init__(self, key_schema: TableSchema, capacity: int) -> None:
        self.key_schema = key_schema
        self.capacity = capacity
        self.keys: list[tuple[Any, ...]] = []
        self.children: list[int] = []
        self.used_bytes = _HEADER.size

    def __len__(self) -> int:
        return len(self.children)

    def fits_key(self, key: tuple[Any, ...]) -> bool:
        needed = _CHILD.size + row_size(self.key_schema, key)
        return self.used_bytes + needed <= self.capacity

    def insert_child(self, position: int, key: tuple[Any, ...],
                     child: int) -> None:
        """Insert separator ``key`` at ``position`` and the child page
        that holds entries >= key at ``position + 1``."""
        self.keys.insert(position, key)
        self.children.insert(position + 1, child)
        self.used_bytes += _CHILD.size + row_size(self.key_schema, key)

    def split(self) -> tuple[tuple[Any, ...], "InternalPage"]:
        """Split, returning (separator pushed up, new right sibling)."""
        sibling = InternalPage(self.key_schema, self.capacity)
        middle = len(self.keys) // 2
        push_up = self.keys[middle]
        sibling.keys = self.keys[middle + 1 :]
        sibling.children = self.children[middle + 1 :]
        self.keys = self.keys[:middle]
        self.children = self.children[: middle + 1]
        for key in sibling.keys:
            size = _CHILD.size + row_size(self.key_schema, key)
            sibling.used_bytes += size
        sibling.used_bytes += _CHILD.size  # the extra leading child
        self.used_bytes = _HEADER.size + sum(
            _CHILD.size + row_size(self.key_schema, key) for key in self.keys
        ) + _CHILD.size
        return push_up, sibling

    def to_bytes(self) -> bytes:
        parts = [_HEADER.pack(self.kind, NO_PAGE, len(self.keys))]
        for child in self.children:
            parts.append(_CHILD.pack(child))
        for key in self.keys:
            parts.append(pack_row(self.key_schema, key))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, key_schema: TableSchema,
                   capacity: int) -> "InternalPage":
        kind, _link, key_count = _HEADER.unpack_from(data, 0)
        if kind != KIND_INTERNAL:
            raise PageError(f"expected internal page, found kind {kind}")
        page = cls(key_schema, capacity)
        pos = _HEADER.size
        for _ in range(key_count + 1):
            (child,) = _CHILD.unpack_from(data, pos)
            pos += _CHILD.size
            page.children.append(child)
        for _ in range(key_count):
            key, pos = unpack_row(key_schema, data, pos)
            page.keys.append(key)
        page.used_bytes = pos  # header + children + packed keys
        return page


def page_kind(data: bytes) -> int:
    """Return the kind byte of a serialized page."""
    if not data:
        raise PageError("cannot determine the kind of an empty page")
    return data[0]
