"""Row (de)serialization against a table schema.

Rows are stored on pages in a compact binary format so that page
capacity, overflow growth and total database size (figure 7 measures
on-disk footprint) are computed from real byte counts:

* a null bitmap (one bit per column, little-endian bit order),
* INT: 8-byte signed little-endian,
* FLOAT: 8-byte IEEE 754 double,
* BOOL: 1 byte,
* VARCHAR/TEXT: 2-byte length prefix + UTF-8 bytes.

The format is compiled once per schema into a :class:`RowCodec`
(``schema.codec``), not interpreted once per value: each run of
consecutive fixed-width columns, together with the length prefix of the
string that ends it, is one precompiled :class:`struct.Struct`.
"""

from __future__ import annotations

import struct
from typing import Any, NamedTuple, Sequence

from repro.catalog.schema import DataType, TableSchema
from repro.errors import StorageError

MAX_STRING_BYTES = 0xFFFF
MAX_NULL_LAYOUTS = 64

_FIXED_WIDTH = {DataType.INT: "q", DataType.FLOAT: "d", DataType.BOOL: "?"}


class _Layout(NamedTuple):
    """The compiled bytes of every row with one null bitmap.  ``runs``
    and ``tail_first`` index the row's non-NULL values; ``nulls`` and
    ``strings`` are column positions."""

    bitmap: bytes
    nulls: tuple[int, ...]
    # (fixed-width run + the length of the string after it, position of
    # the run's first value, position of that string)
    runs: tuple[tuple[struct.Struct, int, int], ...]
    tail: struct.Struct  # the fixed-width columns after the last string
    tail_first: int
    strings: tuple[int, ...]
    fixed_bytes: int  # everything but the strings' UTF-8 bytes


# staticcheck: coldpath(the-row-is-refused)
def _string_too_long(size: int) -> StorageError:
    return StorageError(f"string value of {size} bytes exceeds the "
                        f"{MAX_STRING_BYTES}-byte storage limit")


class RowCodec:
    """Sizes, packs and unpacks the (schema-checked) rows of one schema.

    NULLs change which columns have bytes at all, so a layout is
    compiled per null bitmap on first sight and kept in a cache of at
    most ``MAX_NULL_LAYOUTS`` entries; all three operations walk the
    layout's segments, whichever bitmap it was compiled for.
    """

    def __init__(self, schema: TableSchema) -> None:
        self._formats = tuple(
            _FIXED_WIDTH.get(column.data_type, "") for column in schema.columns)
        self._bitmap_bytes = (len(self._formats) + 7) // 8
        self._no_nulls = bytes(self._bitmap_bytes)
        self._layouts: dict[bytes, _Layout] = {}

    # staticcheck: coldpath(first-row-of-a-null-pattern-only)
    def _compile(self, bitmap: bytes) -> _Layout:
        nulls: list[int] = []
        strings: list[int] = []
        runs: list[tuple[struct.Struct, int, int]] = []
        fmt, first, present = "<", 0, 0
        for i, code in enumerate(self._formats):
            if bitmap[i >> 3] >> (i & 7) & 1:
                nulls.append(i)
                continue
            if code:
                fmt += code
            else:
                runs.append((struct.Struct(fmt + "H"), first, present))
                strings.append(i)
                fmt, first = "<", present + 1
            present += 1
        tail = struct.Struct(fmt)
        layout = _Layout(
            bitmap, tuple(nulls), tuple(runs), tail, first, tuple(strings),
            len(bitmap) + sum(run.size for run, _, _ in runs) + tail.size)
        if len(self._layouts) >= MAX_NULL_LAYOUTS:
            self._layouts.clear()
        self._layouts[bitmap] = layout
        return layout

    def _layout_of(self, row: Sequence[Any]) -> _Layout:
        bitmap = self._no_nulls if None not in row else sum(
            1 << i for i, value in enumerate(row) if value is None
        ).to_bytes(self._bitmap_bytes, "little")
        return self._layouts.get(bitmap) or self._compile(bitmap)

    # staticcheck: hotpath
    def size(self, row: Sequence[Any]) -> int:
        """The serialized size of ``row`` in bytes, without packing it;
        refuses what :meth:`pack` would refuse."""
        layout = self._layout_of(row)
        size = layout.fixed_bytes
        for position in layout.strings:
            text = row[position]
            length = len(text) if text.isascii() else len(text.encode("utf-8"))
            if length > MAX_STRING_BYTES:
                raise _string_too_long(length)
            size += length
        return size

    # staticcheck: hotpath
    def pack(self, row: Sequence[Any]) -> bytes:
        """Serialize ``row`` to bytes."""
        layout = self._layout_of(row)
        values = row if not layout.nulls else [  # staticcheck: allocfree(rows-with-nulls-only)
            value for value in row if value is not None]
        parts = [layout.bitmap]  # staticcheck: allocfree(joined-into-the-packed-row)
        for run, first, position in layout.runs:
            text = values[position].encode("utf-8")
            if len(text) > MAX_STRING_BYTES:
                raise _string_too_long(len(text))
            parts += run.pack(*values[first:position], len(text)), text  # staticcheck: allocfree(struct-arguments)
        parts.append(layout.tail.pack(*values[layout.tail_first:]))
        return b"".join(parts)

    # staticcheck: hotpath
    def unpack(self, data: bytes, offset: int = 0) -> tuple[tuple[Any, ...], int]:
        """Deserialize one row starting at ``offset``.

        Returns ``(row, next_offset)``; a ``next_offset`` beyond
        ``len(data)`` means the row was cut short.
        """
        pos = offset + self._bitmap_bytes
        bitmap = data[offset:pos]  # staticcheck: allocfree(the-layout-key)
        layout = self._layouts.get(bitmap) or self._compile(bitmap)
        values: list[Any] = []
        for run, _, _ in layout.runs:
            values += run.unpack_from(data, pos)
            pos += run.size
            end = pos + values[-1]  # the string's length; its slot takes the text
            values[-1] = data[pos:end].decode("utf-8")  # staticcheck: allocfree(the-decoded-text)
            pos = end
        values += layout.tail.unpack_from(data, pos)
        for position in layout.nulls:
            values.insert(position, None)
        return tuple(values), pos + layout.tail.size
