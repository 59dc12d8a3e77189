"""The generated row kernels: ``TableSchema.check_row`` and the codec's
``size`` / ``pack`` / ``unpack`` against column-at-a-time references,
for every null bitmap of the layouts the generator must handle, and for
column names that are keywords or not identifiers at all."""

import keyword
import re
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.catalog.schema import Column, DataType, TableSchema
from repro.errors import TypeMismatchError
from repro.storage.record import MAX_NULL_LAYOUTS, RowCodec
from tests.test_row_codec import reference_pack, reference_unpack

# Names a generated kernel uses itself, Python keywords, and names no
# identifier can spell: a kernel must treat each as an opaque label.
AWKWARD_NAMES = [
    "v0", "v1", "n0", "e", "p", "row", "data", "offset", "make", "T", "k",
    "len", "type", "None", "class", "def", "lambda", "return", "a b", "1x",
    "x-y", "'", '"', "\\", "x): import os  #", "日本",
] + keyword.kwlist


def reference_check(schema, row):
    """The checker written out one column at a time."""
    if len(row) != len(schema.columns):
        raise TypeMismatchError(
            f"table {schema.name!r} has {len(schema.columns)} columns, "
            f"row has {len(row)} values")
    return tuple(column.check_value(value)
                 for column, value in zip(schema.columns, row))


def outcome(check, row):
    try:
        checked = check(row)
    except TypeMismatchError as error:
        return "refused", str(error)
    return "checked", checked, [type(value) for value in checked]


@st.composite
def columns(draw):
    names = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_NAMES),
                                    st.text(min_size=1, max_size=6)),
                          min_size=1, max_size=12, unique=True))
    return tuple(
        Column(name, draw(st.sampled_from(list(DataType))),
               draw(st.integers(1, 5)), draw(st.booleans()))
        for name in names)


ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=8))


@st.composite
def schema_and_row(draw):
    schema = TableSchema(draw(st.sampled_from(["t", "class", "a b"])),
                         draw(columns()))
    width = len(schema.columns) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    row = draw(st.lists(ANY_VALUE, min_size=width, max_size=width))
    return schema, draw(st.sampled_from([tuple, list]))(row)


class TestCheckerAgreesWithCheckValue:
    @given(schema_and_row())
    @settings(max_examples=400, deadline=None)
    def test_same_result_or_same_error(self, drawn):
        schema, row = drawn
        assert outcome(schema.check_row, row) == \
            outcome(lambda r: reference_check(schema, r), row)

    def test_coercions_and_refusals(self):
        schema = TableSchema("t", (
            Column("class", DataType.FLOAT, nullable=False),
            Column("a b", DataType.INT), Column("1x", DataType.VARCHAR, 2),
            Column("None", DataType.BOOL), Column("def", DataType.TEXT)))
        checked = schema.check_row([3, None, "ab", False, "x"])
        assert checked == (3.0, None, "ab", False, "x")
        assert type(checked) is tuple and type(checked[0]) is float
        for row, message in [
                ((None, 1, "a", True, "t"), "column 'class' is NOT NULL"),
                ((1.0, True, "a", True, "t"), "column 'a b' expects int"),
                ((1.0, 1, "abc", True, "t"), "varchar(2) column '1x'"),
                ((1.0, 1, "a", 1, "t"), "column 'None' expects bool"),
                ((1.0, 1, "a", True), "has 5 columns, row has 4 values")]:
            with pytest.raises(TypeMismatchError, match=re.escape(message)):
                schema.check_row(row)

    def test_schemas_of_one_shape_share_their_kernel(self):
        first = TableSchema("a", (Column("x", DataType.INT),))
        second = TableSchema("b", (Column("class", DataType.INT),))
        assert first.check_row is not second.check_row
        assert first.check_row.__code__ is second.check_row.__code__
        with pytest.raises(TypeMismatchError, match="table 'b'"):
            second.check_row(())


_SAMPLES = {
    DataType.INT: [-(2**63), 7],
    DataType.FLOAT: [-0.0, 2.5],
    DataType.BOOL: [True, False],
    DataType.VARCHAR: ["", "é"],
    DataType.TEXT: ["日本語", "tail"],
}

I, F, B, V, T = (DataType.INT, DataType.FLOAT, DataType.BOOL,
                 DataType.VARCHAR, DataType.TEXT)
LAYOUTS = {
    "string-first": (T, I, F),
    "string-last": (I, B, T),
    "adjacent-strings": (I, V, T, F),
    "all-fixed": (I, F, B),
    "all-strings": (T, V, T),
    "one-string": (T,),
    "one-int": (I,),
    "bitmap-crosses-a-byte": (F, T, I, I, B, V, F, T, I, T, B),
}


def _schema(types, names=None):
    names = names or [f"c{i}" for i in range(len(types))]
    return TableSchema("t", tuple(
        Column(name, data_type, 8) for name, data_type in zip(names, types)))


def _rows(types):
    """One row per null bitmap, with two sets of non-NULL values."""
    for nulls in range(1 << len(types)):
        for pick in (0, 1):
            yield tuple(None if nulls >> i & 1 else _SAMPLES[t][pick]
                        for i, t in enumerate(types))


class TestEveryLayout:
    @pytest.mark.parametrize("types", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_every_null_bitmap(self, types):
        schema = _schema(types)
        codec = RowCodec(schema)
        blob = b"\x01\x02"  # rows need not start at offset 0
        rows = list(_rows(types))
        for row in rows:
            packed = codec.pack(row)
            assert packed == reference_pack(schema, row)
            assert codec.size(row) == len(packed)
            decoded, end = codec.unpack(packed)
            assert (decoded, end) == (row, len(packed))
            assert [str(v) for v in decoded] == [str(v) for v in row]  # -0.0
            blob += packed
        offset = 2
        for row in rows:
            assert reference_unpack(schema, blob, offset)[0] == row
            decoded, offset = codec.unpack(blob, offset)
            assert decoded == row
        assert offset == len(blob)

    def test_awkward_column_names(self):
        names = AWKWARD_NAMES[:11]
        types = LAYOUTS["bitmap-crosses-a-byte"]
        schema = _schema(types, names)
        for row in _rows(types[:3]):
            row += (7, True, "x", -1.0, "y", 3, "z", False)
            assert schema.check_row(row) == row
            packed = schema.codec.pack(row)
            assert packed == reference_pack(schema, row)
            assert schema.codec.unpack(packed) == (row, len(packed))

    def test_truncated_rows_raise(self):
        schema = _schema(LAYOUTS["adjacent-strings"])
        for row in [(1, "ab", "cd", 2.0), (None, "ab", None, 2.0)]:
            packed = schema.codec.pack(row)
            for cut in range(len(packed)):
                try:
                    _, end = schema.codec.unpack(packed[:cut])
                except (struct.error, UnicodeDecodeError, IndexError):
                    continue  # what a page read turns into PageError
                assert end > cut  # a cut string: the row ends past the data


class TestNoNullLayoutIsPinned:
    def test_survives_churning_null_patterns(self):
        schema = TableSchema("n", tuple(
            Column(f"c{i}", DataType.INT) for i in range(10)))
        codec = RowCodec(schema)
        public = (codec.size, codec.pack, codec.unpack)
        compiled = []
        compile_layout = codec._compile
        codec._compile = lambda nulls, dispatch=False: (
            compiled.append(nulls), compile_layout(nulls, dispatch))[1]
        plain = tuple(range(10))
        for bits in range(1, 3 * MAX_NULL_LAYOUTS + 1):
            row = tuple(None if bits >> i & 1 else i for i in range(10))
            packed = codec.pack(row)
            assert codec.unpack(packed) == (row, codec.size(row))
            assert len(codec._layouts) <= MAX_NULL_LAYOUTS
            packed = codec.pack(plain)
            assert codec.unpack(packed) == (plain, codec.size(plain))
        assert len(set(compiled)) == 3 * MAX_NULL_LAYOUTS
        assert 0 not in compiled
        assert (codec.size, codec.pack, codec.unpack) == public
