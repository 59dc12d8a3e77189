"""Record types held in the monitor's ring buffers.

These mirror the IMA virtual-table schema of figure 3 in the paper:
``Statements``, ``Workload``, ``References``, ``Tables``, ``Attributes``,
``Indexes`` and ``Statistics``.  Each is an immutable tuple the sensors
build one or two of per statement, positionally.  Its fields are, in
order, its table's columns as :data:`repro.core.ima.MONITOR_TABLES`
declares them — except for ``Tables`` and ``Attributes``, whose rows
add live catalog facts to the record's own fields.
"""

from __future__ import annotations

from typing import NamedTuple


class StatementRecord(NamedTuple):
    """One distinct statement text, keyed by its hash."""

    text_hash: int
    text: str
    frequency: int
    first_seen: float
    last_seen: float

    def bumped(self, now: float) -> "StatementRecord":
        """Seen once more, at ``now`` (per statement: no ``__new__``
        frame, no keywords)."""
        return tuple.__new__(StatementRecord, (
            self[0], self[1], self[2] + 1, self[3], now))


class WorkloadRecord(NamedTuple):
    """One execution of a statement: times and costs (figure 3's
    ``Workload`` table)."""

    text_hash: int
    session_id: int
    timestamp: float
    optimize_time_s: float
    execute_time_s: float
    wallclock_s: float
    estimated_io: float
    estimated_cpu: float
    actual_io: float
    actual_cpu: float
    logical_reads: int
    physical_reads: int
    tuples_processed: int
    rows_returned: int
    used_indexes: str
    monitor_time_s: float

    @property
    def estimated_cost(self) -> float:
        return self.estimated_io + self.estimated_cpu

    @property
    def actual_cost(self) -> float:
        return self.actual_io + self.actual_cpu


class ReferenceRecord(NamedTuple):
    """Statement -> database object usage (figure 3's ``References``)."""

    text_hash: int
    object_type: str  # "table" | "attribute" | "index"
    object_name: str
    table_name: str
    frequency: int

    def bumped(self) -> "ReferenceRecord":
        return self._replace(frequency=self.frequency + 1)


class TableUsageRecord(NamedTuple):
    """Aggregated per-table usage (figure 3's ``Tables``)."""

    table_name: str
    frequency: int

    def bumped(self) -> "TableUsageRecord":
        return self._replace(frequency=self.frequency + 1)


class AttributeUsageRecord(NamedTuple):
    """Aggregated per-attribute usage (figure 3's ``Attributes``)."""

    table_name: str
    attribute_name: str
    frequency: int

    def bumped(self) -> "AttributeUsageRecord":
        return self._replace(frequency=self.frequency + 1)


class IndexUsageRecord(NamedTuple):
    """Aggregated per-index usage (figure 3's ``Indexes``)."""

    index_name: str
    table_name: str
    frequency: int

    def bumped(self) -> "IndexUsageRecord":
        return self._replace(frequency=self.frequency + 1)


class PlanRecord(NamedTuple):
    """Captured optimizer plan for an expensive statement."""

    text_hash: int
    estimated_cost: float
    plan_text: str
    captured_at: float


class StatisticsRecord(NamedTuple):
    """One sample of system-wide statistics (figure 3's ``Statistics``)."""

    timestamp: float
    current_sessions: int = 0
    peak_sessions: int = 0
    locks_held: int = 0
    lock_waiters: int = 0
    lock_requests: int = 0
    lock_waits: int = 0
    deadlocks: int = 0
    lock_timeouts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    physical_reads: int = 0
    physical_writes: int = 0


#: The sampled statistics, in record order (all fields but the time).
STATISTIC_FIELDS = StatisticsRecord._fields[1:]
