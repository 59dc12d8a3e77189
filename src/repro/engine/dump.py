"""Logical database dump and restore (Ingres' unloaddb/copydb).

``dump_database`` serializes a database — schemas, storage structures,
rows (with their rowids), secondary indexes and collected statistics —
to a single JSON file; ``load_database`` rebuilds an equivalent database
from it.  This is a *logical* copy: pages are laid out fresh on load
(so a restore also compacts heap holes, exactly like Ingres' copydb).

Limitations: virtual tables (IMA) and virtual indexes are registrations
against live in-memory state, so they are skipped with a note in the
dump manifest; re-register them after loading.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from repro.catalog.schema import (
    Column,
    DataType,
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.catalog.statistics import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
)
from repro.clock import Clock
from repro.engine.database import Database
from repro.errors import StorageError

DUMP_FORMAT_VERSION = 1


def dump_database(database: Database, path: str | pathlib.Path) -> int:
    """Write a logical dump of ``database`` to ``path``.

    Returns the number of rows dumped.  Dirty pages are flushed first so
    the dump reflects a consistent on-disk state.
    """
    database.pool.flush_all()
    tables: list[dict[str, Any]] = []
    skipped_virtual: list[str] = []
    total_rows = 0
    for entry in database.catalog.tables():
        if entry.is_virtual:
            skipped_virtual.append(entry.schema.name)
            continue
        storage = database.storage_for(entry.schema.name)
        rows = [[rowid, list(row)] for rowid, row in storage.scan()]
        total_rows += len(rows)
        tables.append({
            "schema": _schema_to_dict(entry.schema),
            "structure": entry.structure.value,
            "main_pages": getattr(storage, "_main_pages", 8),
            "statistics": (_statistics_to_dict(entry.statistics)
                           if entry.statistics is not None else None),
            "rows": rows,
        })
    indexes = [
        {
            "name": index.name,
            "table": index.table_name,
            "columns": list(index.column_names),
            "unique": index.unique,
        }
        for index in database.catalog.all_indexes()
        if not index.virtual
    ]
    document = {
        "format_version": DUMP_FORMAT_VERSION,
        "database": database.name,
        "tables": tables,
        "indexes": indexes,
        "skipped_virtual_tables": skipped_virtual,
    }
    path = pathlib.Path(path)
    path.write_text(json.dumps(document))
    return total_rows


def load_database(path: str | pathlib.Path,
                  clock: Clock | None = None,
                  name: str | None = None) -> Database:
    """Rebuild a database from a dump produced by :func:`dump_database`."""
    document = json.loads(pathlib.Path(path).read_text())
    version = document.get("format_version")
    if version != DUMP_FORMAT_VERSION:
        raise StorageError(
            f"unsupported dump format version {version!r} "
            f"(expected {DUMP_FORMAT_VERSION})")
    database = Database(name or document["database"], clock)
    for table in document["tables"]:
        schema = _schema_from_dict(table["schema"])
        structure = StorageStructure(table["structure"])
        database.create_table(schema, structure,
                              main_pages=table.get("main_pages"))
        storage = database.storage_for(schema.name)
        for rowid, row in table["rows"]:
            storage.insert_with_rowid(rowid, tuple(row))
        if table.get("statistics") is not None:
            entry = database.catalog.table(schema.name)
            entry.statistics = _statistics_from_dict(table["statistics"])
            storage.modifications_since_stats = 0
    for index in document["indexes"]:
        database.create_index(IndexDef(
            name=index["name"],
            table_name=index["table"],
            column_names=tuple(index["columns"]),
            unique=index["unique"],
        ))
    database.pool.flush_all()
    return database


# -- serialization helpers ---------------------------------------------------


def _schema_to_dict(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "primary_key": list(schema.primary_key),
        "columns": [
            {
                "name": column.name,
                "type": column.data_type.value,
                "max_length": column.max_length,
                "nullable": column.nullable,
            }
            for column in schema.columns
        ],
    }


def _schema_from_dict(data: dict[str, Any]) -> TableSchema:
    return TableSchema(
        data["name"],
        tuple(
            Column(c["name"], DataType(c["type"]), c["max_length"],
                   c["nullable"])
            for c in data["columns"]
        ),
        tuple(data["primary_key"]),
    )


def _statistics_to_dict(stats: TableStatistics) -> dict[str, Any]:
    return {
        "row_count": stats.row_count,
        "page_count": stats.page_count,
        "overflow_pages": stats.overflow_pages,
        "collected_at": stats.collected_at,
        "columns": {
            name: {
                "n_distinct": column.n_distinct,
                "null_fraction": column.null_fraction,
                "min": column.min_value,
                "max": column.max_value,
                "histogram": (
                    {
                        "boundaries": list(column.histogram.boundaries),
                        "rows_per_bucket": column.histogram.rows_per_bucket,
                        "distinct_per_bucket":
                            list(column.histogram.distinct_per_bucket),
                    }
                    if column.histogram is not None else None
                ),
            }
            for name, column in stats.columns.items()
        },
    }


def _statistics_from_dict(data: dict[str, Any]) -> TableStatistics:
    stats = TableStatistics(
        row_count=data["row_count"],
        page_count=data["page_count"],
        overflow_pages=data["overflow_pages"],
        collected_at=data["collected_at"],
    )
    for name, column in data["columns"].items():
        histogram = None
        if column["histogram"] is not None:
            histogram = Histogram(
                boundaries=tuple(column["histogram"]["boundaries"]),
                rows_per_bucket=column["histogram"]["rows_per_bucket"],
                distinct_per_bucket=tuple(
                    column["histogram"]["distinct_per_bucket"]),
            )
        stats.columns[name] = ColumnStatistics(
            column_name=name,
            n_distinct=column["n_distinct"],
            null_fraction=column["null_fraction"],
            min_value=column["min"],
            max_value=column["max"],
            histogram=histogram,
        )
    return stats
