"""Schema descriptors: data types, columns, tables and indexes."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import CatalogError, TypeMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.record import RowCodec


class DataType(enum.Enum):
    """SQL data types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    VARCHAR = "varchar"
    TEXT = "text"
    BOOL = "bool"

    @property
    def python_types(self) -> tuple[type, ...]:
        return _PYTHON_TYPES[self]


_PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.INT: (int,),
    DataType.FLOAT: (float, int),
    DataType.VARCHAR: (str,),
    DataType.TEXT: (str,),
    DataType.BOOL: (bool,),
}


_EXACT_TYPES: dict[DataType, type] = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOL: bool,
}


class StorageStructure(enum.Enum):
    """Physical storage structures, as in Ingres' MODIFY statement."""

    HEAP = "heap"
    BTREE = "btree"
    HASH = "hash"


@dataclass(frozen=True)
class Column:
    """One attribute of a table."""

    name: str
    data_type: DataType
    max_length: int = 0
    nullable: bool = True

    def __post_init__(self) -> None:
        if self.data_type is DataType.VARCHAR and self.max_length <= 0:
            raise CatalogError(
                f"varchar column {self.name!r} needs a positive max_length"
            )

    @cached_property
    def exact_type(self) -> type | None:
        """The Python type whose instances :meth:`check_value` returns
        unchanged and unexamined (None for VARCHAR: length matters)."""
        return _EXACT_TYPES.get(self.data_type)

    def check_value(self, value: Any) -> Any:
        """Validate and coerce ``value`` for this column; return it.

        Integers are accepted for FLOAT columns and coerced.  ``None``
        is accepted only for nullable columns.
        """
        if value is None:
            if not self.nullable:
                raise TypeMismatchError(
                    f"column {self.name!r} is NOT NULL but got NULL"
                )
            return None
        if self.data_type is DataType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {self.name!r} expects bool, got {type(value).__name__}"
                )
            return value
        if self.data_type is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(
                    f"column {self.name!r} expects int, got {type(value).__name__}"
                )
            return value
        if self.data_type is DataType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(
                    f"column {self.name!r} expects float, got {type(value).__name__}"
                )
            return float(value)
        # VARCHAR / TEXT
        if not isinstance(value, str):
            raise TypeMismatchError(
                f"column {self.name!r} expects str, got {type(value).__name__}"
            )
        if self.data_type is DataType.VARCHAR and len(value) > self.max_length:
            raise TypeMismatchError(
                f"value of length {len(value)} exceeds "
                f"varchar({self.max_length}) column {self.name!r}"
            )
        return value


@dataclass(frozen=True)
class TableSchema:
    """Logical definition of a table: name, columns and primary key."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        for key_col in self.primary_key:
            if key_col not in names:
                raise CatalogError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column_index(self, name: str) -> int:
        """Return the ordinal position of column ``name``."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def check_row(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """Validate ``row`` against the schema and return it as a tuple."""
        if len(row) != len(self.columns):
            raise TypeMismatchError(
                f"table {self.name!r} has {len(self.columns)} columns, "
                f"row has {len(row)} values"
            )
        # A value whose type is exactly the column's needs no coercion
        # and no further check; everything else (NULLs, ints for FLOAT,
        # bools, varchar lengths, mismatches) goes through check_value.
        return tuple([
            value if type(value) is column.exact_type
            else column.check_value(value)
            for column, value in zip(self.columns, row)
        ])

    @cached_property
    def codec(self) -> "RowCodec":
        """The row format of this schema, compiled on first use (the
        storage layer's sizer, encoder and decoder)."""
        from repro.storage.record import RowCodec  # it imports this module
        return RowCodec(self)

    def key_positions(self) -> tuple[int, ...]:
        """Ordinal positions of the primary key columns."""
        return tuple(self.column_index(name) for name in self.primary_key)


@dataclass
class IndexDef:
    """A secondary index definition.

    In Ingres (and here), a secondary index is itself a B-Tree relation
    whose rows are ``(key columns..., locator)``; the optimizer may add
    it to the join space like a regular table.  ``virtual`` indexes are
    catalog-only entries used for what-if analysis — the optimizer may
    cost them but the executor refuses to use them.
    """

    name: str
    table_name: str
    column_names: tuple[str, ...]
    unique: bool = False
    virtual: bool = False
    estimated_pages: int = 0
    """For virtual indexes: page count synthesized from table statistics."""

    def __post_init__(self) -> None:
        if not self.column_names:
            raise CatalogError(f"index {self.name!r} has no columns")
        if len(set(self.column_names)) != len(self.column_names):
            raise CatalogError(f"index {self.name!r} repeats a column")

    def covers(self, columns: Sequence[str]) -> bool:
        """True if the index key starts with all of ``columns`` (in any
        order within the matched prefix)."""
        wanted = set(columns)
        prefix = self.column_names[: len(wanted)]
        return set(prefix) == wanted


@dataclass
class TableOptions:
    """Physical options attached to a table at creation/MODIFY time."""

    structure: StorageStructure = StorageStructure.HEAP
    main_pages: int = 8
    """Main data pages a heap allocates before growing overflow chains."""
