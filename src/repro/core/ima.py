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

Each monitor table is declared once, here, as a :class:`MonitorTable`:
its IMA schema, its workload-DB schema, the daemon's poll and the
analyzer's fold all come from that one declaration
(:data:`MONITOR_TABLES`).
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


def _own_fields(record: tuple, _source: "Database | None") -> tuple:
    """A record whose fields, in order, are its table's columns."""
    return record


class MonitorTable:
    """One monitor table, declared once.

    ``name`` is the monitor's buffer attribute; ``columns`` are what
    ``facts(record, source)`` returns for one of its records.  The IMA
    table ``ima_<name>`` leads with the ring's ``seq``; the workload
    table ``wl_<name>`` is the same columns between a leading
    ``captured_at`` and a trailing ``src_seq`` (the source ``seq``).
    """

    def __init__(self, name: str, columns: tuple[Column, ...],
                 facts: Callable[[Any, "Database | None"], tuple]
                 = _own_fields) -> None:
        self.name = name
        self.facts = facts
        self.ima_schema = TableSchema(f"ima_{name}", (_int("seq"), *columns))
        self.wl_schema = TableSchema(
            f"wl_{name}", (_float("captured_at"), *columns, _int("src_seq")))


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


STATEMENTS = MonitorTable("statements", (
    _int("text_hash"), _text("query_text"),
    _int("frequency"), _float("first_seen"), _float("last_seen"),
))

WORKLOAD = MonitorTable("workload", (
    _int("text_hash"), _int("session_id"),
    _float("ts"), _float("optimize_time_s"), _float("execute_time_s"),
    _float("wallclock_s"), _float("estimated_io"), _float("estimated_cpu"),
    _float("actual_io"), _float("actual_cpu"), _int("logical_reads"),
    _int("physical_reads"), _int("tuples_processed"), _int("rows_returned"),
    _text("used_indexes"), _float("monitor_time_s"),
))

REFERENCES = MonitorTable("references", (
    _int("text_hash"),
    Column("object_type", DataType.VARCHAR, 16), _text("object_name"),
    _text("table_name"), _int("frequency"),
))

TABLES = MonitorTable("tables", (
    _text("table_name"), _int("frequency"),
    Column("structure", DataType.VARCHAR, 16), _int("data_pages"),
    _int("overflow_pages"), _int("row_count"), _int("has_statistics"),
), facts=table_facts)

ATTRIBUTES = MonitorTable("attributes", (
    _text("table_name"), _text("attribute_name"),
    _int("frequency"), _int("has_histogram"),
), facts=attribute_facts)

INDEXES = MonitorTable("indexes", (
    _text("index_name"), _text("table_name"), _int("frequency"),
))

PLANS = MonitorTable("plans", (
    _int("text_hash"), _float("estimated_cost"),
    _text("plan_text"), _float("plan_captured_at"),
))

STATISTICS = MonitorTable("statistics", (
    _float("ts"), _int("current_sessions"),
    _int("peak_sessions"), _int("locks_held"), _int("lock_waiters"),
    _int("lock_requests"), _int("lock_waits"), _int("deadlocks"),
    _int("lock_timeouts"), _int("cache_hits"), _int("cache_misses"),
    _int("physical_reads"), _int("physical_writes"),
))

#: Every monitor table, in the order the storage daemon polls them.
MONITOR_TABLES = (
    STATEMENTS, WORKLOAD, REFERENCES, TABLES, ATTRIBUTES, INDEXES, PLANS,
    STATISTICS,
)


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

    def publish(table: MonitorTable) -> None:
        """Register ``table``'s IMA schema over its buffer; rows come in
        the ring's ascending seq order."""
        buffer = getattr(monitor, table.name)
        facts = table.facts

        def rows(min_seq: int = 0) -> list[tuple]:
            """Rows with ``seq > min_seq`` (the ring filters on it)."""
            return [(seq, *facts(record, source))
                    for seq, record in buffer.snapshot(min_seq)]

        database.register_virtual_table(
            table.ima_schema, rows, floor_column="seq",
            row_count=buffer.__len__)

    for table in MONITOR_TABLES:
        publish(table)
