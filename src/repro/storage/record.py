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
(``schema.codec``), not interpreted once per value: ``size``, ``pack``
and ``unpack`` are Python functions generated for the schema's column
positions.  Each run of consecutive fixed-width columns, together with
the length prefix of the string that ends it, is one precompiled
:class:`struct.Struct` call; each string is one ``encode`` or
``decode``; nothing loops over a row's values.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NamedTuple, Protocol, Sequence

from repro.catalog.schema import DataType, TableSchema, row_kernel, target_list
from repro.errors import StorageError

MAX_STRING_BYTES = 0xFFFF
MAX_NULL_LAYOUTS = 64

_FIXED_WIDTH = {DataType.INT: "q", DataType.FLOAT: "d", DataType.BOOL: "?"}

Sizer = Callable[[Sequence[Any]], int]
Packer = Callable[[Sequence[Any]], bytes]


class Unpacker(Protocol):
    def __call__(self, data: bytes,
                 offset: int = 0) -> tuple[tuple[Any, ...], int]: ...


class _Layout(NamedTuple):
    """The generated functions for every row with one null bitmap."""

    bitmap: int
    size: Sizer
    pack: Packer
    unpack: Unpacker


def _string_too_long(size: int) -> StorageError:
    return StorageError(f"string value of {size} bytes exceeds the "
                        f"{MAX_STRING_BYTES}-byte storage limit")


def _kernel(formats: Sequence[str], nulls: int, dispatch: bool,
            ) -> tuple[str, list[struct.Struct], list[struct.Struct]]:
    """The source of ``make`` for the rows whose NULL columns are the
    set bits of ``nulls``, with the structs it packs and unpacks with.

    Column ``i``'s value is the local ``v<i>`` and a string's length
    ``n<i>``; only positions and sizes enter the text.  The first
    struct writes the null bitmap (``<w>s``) or skips it (``<w>x``).
    With ``dispatch`` each function first looks for NULLs (``is None``
    on each value, a non-zero byte in the bitmap) and hands a row that
    has any to the ``other_*`` function it is given.
    """
    width = (len(formats) + 7) // 8
    # (fixed-width positions, position of the string that ends the run)
    segments: list[tuple[list[int], int | None]] = [([], None)]
    for i, code in enumerate(formats):
        if nulls >> i & 1:
            continue
        if code:
            segments[-1][0].append(i)
        else:
            segments[-1] = (segments[-1][0], i)
            segments.append(([], None))
    if len(segments) > 1 and not segments[-1][0]:
        segments.pop()  # the row ends with a string
    packers: list[struct.Struct] = []
    unpackers: list[struct.Struct] = []
    for k, (fixed, text) in enumerate(segments):
        codes = "".join(formats[i] for i in fixed)
        codes += "" if text is None else "H"
        packers.append(struct.Struct(
            f"<{width}s{codes}" if k == 0 else f"<{codes}"))
        unpackers.append(struct.Struct(
            f"<{width}x{codes}" if k == 0 else f"<{codes}"))
    values = [f"v{i}" for i in range(len(formats))]
    strings = [text for _, text in segments if text is not None]

    def prologue(name: str) -> list[str]:
        lines = [f"    def {name}(row):",
                 f"        {target_list(values)} = row"]
        if dispatch and values:
            nulls_of_row = " | ".join(
                f"({v} is None) << {i}" for i, v in enumerate(values))
            lines += [
                "        if " + " or ".join(f"{v} is None" for v in values) + ":",
                f"            return other_{name}(row, {nulls_of_row})"]
        return lines

    size = prologue("size")
    for i in strings:
        size += [f"        n{i} = len(v{i}) if v{i}.isascii()"
                 f" else len(v{i}.encode())",
                 f"        if n{i} > {MAX_STRING_BYTES}:",
                 f"            raise too_long(n{i})"]
    fixed_bytes = sum(unpacker.size for unpacker in unpackers)
    size.append("        return " + " + ".join(
        [str(fixed_bytes)] + [f"n{i}" for i in strings]))

    pack = prologue("pack")
    parts: list[str] = []
    for k, (fixed, text) in enumerate(segments):
        args = (["bitmap"] if k == 0 else []) + [f"v{i}" for i in fixed]
        if text is not None:
            pack += [f"        e{text} = v{text}.encode()",
                     f"        if len(e{text}) > {MAX_STRING_BYTES}:",
                     f"            raise too_long(len(e{text}))"]
            args.append(f"len(e{text})")
        parts.append(f"P{k}({', '.join(args)})")
        if text is not None:
            parts.append(f"e{text}")
    pack.append(f"        return {parts[0]}" if len(parts) == 1
                else f"        return b''.join(({', '.join(parts)}))")

    unpack = ["    def unpack(data, offset=0):"]
    if dispatch and width:
        unpack += ["        if " + " or ".join(
                       f"data[offset + {b}]" for b in range(width)) + ":",
                   "            return other_unpack(data, offset)"]
    at = "offset"
    for k, (fixed, text) in enumerate(segments):
        names = [f"v{i}" for i in fixed] + ([] if text is None else [f"n{text}"])
        unpack.append(f"        {target_list(names)} = U{k}(data, {at})")
        at = f"{at} + {unpackers[k].size}"
        if text is not None:
            unpack += [f"        p = {at}",
                       f"        e = p + n{text}",
                       f"        v{text} = data[p:e].decode()"]
            at = "e"
    result = ["None" if nulls >> i & 1 else f"v{i}"
              for i in range(len(formats))]
    unpack.append(f"        return ({target_list(result)}), {at}")

    lines = ["def make(P, U, bitmap, too_long,",
             "         other_size, other_pack, other_unpack):",
             f"    {target_list([f'P{k}' for k in range(len(segments))])} = P",
             f"    {target_list([f'U{k}' for k in range(len(segments))])} = U",
             *size, *pack, *unpack,
             "    return size, pack, unpack"]
    return "\n".join(lines), packers, unpackers


class RowCodec:
    """Sizes, packs and unpacks the (schema-checked) rows of one schema.

    ``size(row)`` is the serialized size in bytes without packing the
    row, and refuses what ``pack`` would refuse; ``pack(row)`` returns
    the bytes; ``unpack(data, offset=0)`` returns ``(row,
    next_offset)``, and a ``next_offset`` beyond ``len(data)`` means the
    row was cut short.

    NULLs change which columns have bytes at all, so each null bitmap
    has its own generated functions.  The three public ones are those
    of the bitmap without NULLs, compiled here and kept for the codec's
    life: they test each value with ``is None`` and hand a row that has
    NULLs to the layout compiled for its bitmap on first sight, kept in
    a cache of at most ``MAX_NULL_LAYOUTS`` entries.
    """

    size: Sizer
    pack: Packer
    unpack: Unpacker

    def __init__(self, schema: TableSchema) -> None:
        self._formats = tuple(
            _FIXED_WIDTH.get(column.data_type, "") for column in schema.columns)
        self._bitmap_bytes = (len(self._formats) + 7) // 8
        self._layouts: dict[int, _Layout] = {}
        _, self.size, self.pack, self.unpack = self._compile(0, dispatch=True)

    def _compile(self, nulls: int, dispatch: bool = False) -> _Layout:
        source, packers, unpackers = _kernel(self._formats, nulls, dispatch)
        make = row_kernel(source, "row kernel")
        functions = make(
            tuple(packer.pack for packer in packers),
            tuple(unpacker.unpack_from for unpacker in unpackers),
            nulls.to_bytes(self._bitmap_bytes, "little"), _string_too_long,
            self._size_with_nulls, self._pack_with_nulls,
            self._unpack_with_nulls)
        return _Layout(nulls, *functions)

    def _layout(self, nulls: int) -> _Layout:
        layout = self._layouts.get(nulls)
        if layout is None:
            if len(self._layouts) >= MAX_NULL_LAYOUTS:
                self._layouts.clear()
            layout = self._layouts[nulls] = self._compile(nulls)
        return layout

    def _size_with_nulls(self, row: Sequence[Any], nulls: int) -> int:
        return self._layout(nulls).size(row)

    def _pack_with_nulls(self, row: Sequence[Any], nulls: int) -> bytes:
        return self._layout(nulls).pack(row)

    def _unpack_with_nulls(self, data: bytes,
                           offset: int) -> tuple[tuple[Any, ...], int]:
        # A bitmap cut short still names some layout, whose first struct
        # then refuses the missing bytes.
        bitmap = data[offset:offset + self._bitmap_bytes]
        return self._layout(int.from_bytes(bitmap, "little")).unpack(
            data, offset)

