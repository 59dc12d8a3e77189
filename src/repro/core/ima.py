"""IMA: the monitor's ring buffers exposed as virtual SQL tables.

The Ingres Management Architecture registers in-memory DBMS structures
as relational objects queryable over standard SQL, with no disk access.
``register_ima_tables`` does the same here: it installs virtual tables
backed directly by a monitor's buffers into a database, so any session
can read monitor data with plain SELECTs — which is exactly how the
storage daemon collects it.

Every IMA table carries a leading ``seq`` column: the record's sequence
number in its ring buffer.  A poller fetches only rows newer than its
last visit (``where seq > N``); the floor reaches the ring itself, so
the read costs the new rows only.  The daemon strips ``seq`` before the
rows reach the workload DB, which keeps it as ``src_seq``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.catalog.schema import Column, DataType, TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.monitor import IntegratedMonitor
    from repro.engine.database import Database


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _float(name: str) -> Column:
    return Column(name, DataType.FLOAT)


def _text(name: str) -> Column:
    return Column(name, DataType.TEXT)


STATEMENTS_SCHEMA = TableSchema("ima_statements", (
    _int("seq"), _int("text_hash"), _text("query_text"),
    _int("frequency"), _float("first_seen"), _float("last_seen"),
))

WORKLOAD_SCHEMA = TableSchema("ima_workload", (
    _int("seq"), _int("text_hash"), _int("session_id"),
    _float("ts"),
    _float("optimize_time_s"), _float("execute_time_s"),
    _float("wallclock_s"), _float("estimated_io"), _float("estimated_cpu"),
    _float("actual_io"), _float("actual_cpu"), _int("logical_reads"),
    _int("physical_reads"), _int("tuples_processed"), _int("rows_returned"),
    _text("used_indexes"), _float("monitor_time_s"),
))

REFERENCES_SCHEMA = TableSchema("ima_references", (
    _int("seq"), _int("text_hash"),
    Column("object_type", DataType.VARCHAR, 16),
    _text("object_name"), _text("table_name"), _int("frequency"),
))

TABLES_SCHEMA = TableSchema("ima_tables", (
    _int("seq"), _text("table_name"), _int("frequency"),
    Column("structure", DataType.VARCHAR, 16), _int("data_pages"),
    _int("overflow_pages"), _int("row_count"), _int("has_statistics"),
))

ATTRIBUTES_SCHEMA = TableSchema("ima_attributes", (
    _int("seq"), _text("table_name"), _text("attribute_name"),
    _int("frequency"), _int("has_histogram"),
))

INDEXES_SCHEMA = TableSchema("ima_indexes", (
    _int("seq"), _text("index_name"), _text("table_name"),
    _int("frequency"),
))

PLANS_SCHEMA = TableSchema("ima_plans", (
    _int("seq"), _int("text_hash"), _float("estimated_cost"),
    _text("plan_text"), _float("captured_at"),
))

STATISTICS_SCHEMA = TableSchema("ima_statistics", (
    _int("seq"), _float("ts"), _int("current_sessions"),
    _int("peak_sessions"), _int("locks_held"), _int("lock_waiters"),
    _int("lock_requests"), _int("lock_waits"), _int("deadlocks"),
    _int("lock_timeouts"), _int("cache_hits"), _int("cache_misses"),
    _int("physical_reads"), _int("physical_writes"),
))


IMA_TABLE_NAMES = (
    "ima_statements", "ima_workload", "ima_references", "ima_tables",
    "ima_attributes", "ima_indexes", "ima_statistics", "ima_plans",
)


def table_facts(record: Any, source: "Database | None") -> tuple:
    """``ima_tables`` columns of a table-usage record: its own, then
    the table's structure, page counts, row count and whether it has
    statistics, as ``source``'s catalog has them now (blank without)."""
    structure = ""
    pages = overflow = row_count = has_stats = 0
    if source is not None and source.catalog.has_table(record.table_name):
        entry = source.catalog.table(record.table_name)
        has_stats = int(entry.statistics is not None)
        if not entry.is_virtual:
            storage = source.storage_for(record.table_name)
            structure = entry.structure.value
            pages = storage.page_count
            overflow = storage.overflow_page_count
            row_count = storage.row_count
    return (record.table_name, record.frequency, structure, pages,
            overflow, row_count, has_stats)


def attribute_facts(record: Any, source: "Database | None") -> tuple:
    """``ima_attributes`` columns of an attribute-usage record: its
    own, then whether ``source`` holds a histogram for it now."""
    has_histogram = 0
    if source is not None and source.catalog.has_table(record.table_name):
        stats = source.catalog.table(record.table_name).statistics
        if stats is not None:
            column = stats.column(record.attribute_name)
            has_histogram = int(
                column is not None and column.histogram is not None)
    return (record.table_name, record.attribute_name, record.frequency,
            has_histogram)


def register_ima_tables(database: "Database", monitor: "IntegratedMonitor",
                        monitored_database: "Database | None" = None) -> None:
    """Install the IMA virtual tables over ``monitor``'s buffers into
    ``database``.

    ``monitored_database`` (default: ``database`` itself) is consulted
    to enrich the ``ima_tables``/``ima_attributes`` snapshots with live
    catalog facts — storage structure, page counts, histogram presence —
    which the monitor logged "at the source" and the analyzer needs.
    """
    source = monitored_database if monitored_database is not None else database

    def publish(schema: TableSchema, buffer: Any,
                make_row: Callable[[int, Any], tuple]) -> None:
        """Register ``schema`` over ``buffer``; ``make_row(seq, record)``
        builds one row, and rows come in the ring's ascending seq order."""
        def rows(min_seq: int = 0) -> list[tuple]:
            """Rows with ``seq > min_seq`` (the ring filters on it)."""
            return [make_row(seq, record)
                    for seq, record in buffer.snapshot(min_seq)]

        database.register_virtual_table(
            schema, rows, floor_column="seq", row_count=buffer.__len__)

    publish(STATEMENTS_SCHEMA, monitor.statements, lambda seq, r: (
        seq, r.text_hash, r.text, r.frequency, r.first_seen, r.last_seen))
    publish(WORKLOAD_SCHEMA, monitor.workload, lambda seq, r: (
        seq, r.text_hash, r.session_id, r.timestamp,
        r.optimize_time_s, r.execute_time_s, r.wallclock_s, r.estimated_io,
        r.estimated_cpu, r.actual_io, r.actual_cpu, r.logical_reads,
        r.physical_reads, r.tuples_processed, r.rows_returned,
        r.used_indexes, r.monitor_time_s))
    publish(REFERENCES_SCHEMA, monitor.references, lambda seq, r: (
        seq, r.text_hash, r.object_type, r.object_name, r.table_name,
        r.frequency))
    publish(TABLES_SCHEMA, monitor.tables,
            lambda seq, r: (seq,) + table_facts(r, source))
    publish(ATTRIBUTES_SCHEMA, monitor.attributes,
            lambda seq, r: (seq,) + attribute_facts(r, source))
    publish(INDEXES_SCHEMA, monitor.indexes, lambda seq, r: (
        seq, r.index_name, r.table_name, r.frequency))
    publish(STATISTICS_SCHEMA, monitor.statistics,
            lambda seq, r: (seq,) + r.as_row())
    publish(PLANS_SCHEMA, monitor.plans, lambda seq, r: (
        seq, r.text_hash, r.estimated_cost, r.plan_text, r.captured_at))
