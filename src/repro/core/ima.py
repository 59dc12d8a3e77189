"""IMA: the monitor's ring buffers exposed as virtual SQL tables.

The Ingres Management Architecture registers in-memory DBMS structures
as relational objects queryable over standard SQL, with no disk access.
``register_ima_tables`` does the same here: it installs virtual tables
backed directly by a monitor's buffers into a database, so any session
can read monitor data with plain SELECTs — which is exactly how the
storage daemon collects it.

Every IMA table carries a leading ``seq`` column (the record's sequence
number in the *merged* shard encoding of :mod:`repro.core.sharding`)
and a ``shard`` column naming the monitor shard that produced the row.
A poller fetches only rows newer than its last visit *per shard*
(``where shard = S and seq > hw[S]``); a plain unsharded monitor is
published as shard 0, so both monitor flavors share one protocol.  The
``shard`` column exists for the daemon's shard-filtered polls and is
stripped before rows reach the workload DB — the persisted ``wl_*``
schemas are unchanged (the shard survives inside ``src_seq``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.catalog.schema import Column, DataType, TableSchema
from repro.core.monitor import IntegratedMonitor
from repro.core.sharding import (
    SHARD_STRIDE,
    ShardedMonitor,
    encode_seq,
    monitor_shards,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


def _int(name: str) -> Column:
    return Column(name, DataType.INT)


def _float(name: str) -> Column:
    return Column(name, DataType.FLOAT)


def _text(name: str) -> Column:
    return Column(name, DataType.TEXT)


STATEMENTS_SCHEMA = TableSchema("ima_statements", (
    _int("seq"), _int("shard"), _int("text_hash"), _text("query_text"),
    _int("frequency"), _float("first_seen"), _float("last_seen"),
))

WORKLOAD_SCHEMA = TableSchema("ima_workload", (
    _int("seq"), _int("shard"), _int("text_hash"), _int("session_id"),
    _float("ts"),
    _float("optimize_time_s"), _float("execute_time_s"),
    _float("wallclock_s"), _float("estimated_io"), _float("estimated_cpu"),
    _float("actual_io"), _float("actual_cpu"), _int("logical_reads"),
    _int("physical_reads"), _int("tuples_processed"), _int("rows_returned"),
    _text("used_indexes"), _float("monitor_time_s"),
))

REFERENCES_SCHEMA = TableSchema("ima_references", (
    _int("seq"), _int("shard"), _int("text_hash"),
    Column("object_type", DataType.VARCHAR, 16),
    _text("object_name"), _text("table_name"), _int("frequency"),
))

TABLES_SCHEMA = TableSchema("ima_tables", (
    _int("seq"), _int("shard"), _text("table_name"), _int("frequency"),
    Column("structure", DataType.VARCHAR, 16), _int("data_pages"),
    _int("overflow_pages"), _int("row_count"), _int("has_statistics"),
))

ATTRIBUTES_SCHEMA = TableSchema("ima_attributes", (
    _int("seq"), _int("shard"), _text("table_name"), _text("attribute_name"),
    _int("frequency"), _int("has_histogram"),
))

INDEXES_SCHEMA = TableSchema("ima_indexes", (
    _int("seq"), _int("shard"), _text("index_name"), _text("table_name"),
    _int("frequency"),
))

PLANS_SCHEMA = TableSchema("ima_plans", (
    _int("seq"), _int("shard"), _int("text_hash"), _float("estimated_cost"),
    _text("plan_text"), _float("captured_at"),
))

STATISTICS_SCHEMA = TableSchema("ima_statistics", (
    _int("seq"), _int("shard"), _float("ts"), _int("current_sessions"),
    _int("peak_sessions"), _int("locks_held"), _int("lock_waiters"),
    _int("lock_requests"), _int("lock_waits"), _int("deadlocks"),
    _int("lock_timeouts"), _int("cache_hits"), _int("cache_misses"),
    _int("physical_reads"), _int("physical_writes"),
))

_SEQ = itemgetter(0)

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


def register_ima_tables(database: "Database",
                        monitor: "IntegratedMonitor | ShardedMonitor",
                        monitored_database: "Database | None" = None) -> None:
    """Install the IMA virtual tables into ``database``.

    ``monitor`` may be a plain :class:`IntegratedMonitor` (published as
    shard 0) or a :class:`ShardedMonitor` (one row stream per shard,
    merged and sorted by encoded seq).  ``monitored_database`` (default:
    ``database`` itself) is consulted to enrich the
    ``ima_tables``/``ima_attributes`` snapshots with live catalog facts
    — storage structure, page counts, histogram presence — which the
    monitor logged "at the source" and the analyzer needs.
    """
    source = monitored_database if monitored_database is not None else database
    shards = monitor_shards(monitor)

    def publish(schema: TableSchema, buffer_name: str,
                make_row: Callable[[int, int, Any], tuple]) -> None:
        """Register ``schema`` over every shard's ``buffer_name`` ring;
        ``make_row(encoded_seq, shard_id, record)`` builds one row."""
        buffers = [getattr(shard, buffer_name) for shard in shards]

        def rows(min_seq: int = 0) -> list[tuple]:
            """Rows with ``seq > min_seq`` (an encoded seq; per shard it
            decodes to the local floor the ring filters on itself)."""
            found = [
                make_row(encode_seq(seq, shard_id), shard_id, record)
                for shard_id, buffer in enumerate(buffers)
                for seq, record in buffer.snapshot(
                    (min_seq - shard_id) // SHARD_STRIDE)
            ]
            found.sort(key=_SEQ)
            return found

        database.register_virtual_table(
            schema, rows, floor_column="seq",
            row_count=lambda: sum(len(buffer) for buffer in buffers))

    publish(STATEMENTS_SCHEMA, "statements", lambda seq, shard_id, r: (
        seq, shard_id, r.text_hash, r.text, r.frequency, r.first_seen,
        r.last_seen))
    publish(WORKLOAD_SCHEMA, "workload", lambda seq, shard_id, r: (
        seq, shard_id, r.text_hash, r.session_id, r.timestamp,
        r.optimize_time_s, r.execute_time_s, r.wallclock_s, r.estimated_io,
        r.estimated_cpu, r.actual_io, r.actual_cpu, r.logical_reads,
        r.physical_reads, r.tuples_processed, r.rows_returned,
        r.used_indexes, r.monitor_time_s))
    publish(REFERENCES_SCHEMA, "references", lambda seq, shard_id, r: (
        seq, shard_id, r.text_hash, r.object_type, r.object_name,
        r.table_name, r.frequency))
    publish(TABLES_SCHEMA, "tables", lambda seq, shard_id, r: (
        seq, shard_id) + table_facts(r, source))
    publish(ATTRIBUTES_SCHEMA, "attributes", lambda seq, shard_id, r: (
        seq, shard_id) + attribute_facts(r, source))
    publish(INDEXES_SCHEMA, "indexes", lambda seq, shard_id, r: (
        seq, shard_id, r.index_name, r.table_name, r.frequency))
    publish(STATISTICS_SCHEMA, "statistics", lambda seq, shard_id, r: (
        seq, shard_id) + r.as_row())
    publish(PLANS_SCHEMA, "plans", lambda seq, shard_id, r: (
        seq, shard_id, r.text_hash, r.estimated_cost, r.plan_text,
        r.captured_at))
