"""Record types held in the monitor's ring buffers.

These mirror the IMA virtual-table schema of figure 3 in the paper:
``Statements``, ``Workload``, ``References``, ``Tables``, ``Attributes``,
``Indexes`` and ``Statistics``.  Each is an immutable tuple the sensors
build one or two of per statement, positionally.  Its fields are, in
order, its table's columns as :data:`repro.core.ima.MONITOR_TABLES`
declares them — except for ``Workload``, whose record keeps the facts
the terminal sensor holds and whose row derives the columns, and
``Tables`` and ``Attributes``, whose rows add live catalog facts to
the record's own fields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.executor import ExecutionMetrics
    from repro.optimizer.cost_model import Cost


class StatementRecord(NamedTuple):
    """One distinct statement text, keyed by its hash."""

    text_hash: int
    text: str
    frequency: int
    first_seen: float
    last_seen: float


class WorkloadRecord(NamedTuple):
    """One execution of a statement (figure 3's ``Workload`` table),
    as its terminal sensor holds the facts: the plan's estimate and
    the executor's metrics, not the plan.  The sensor appends these
    fields as a bare tuple; ``ima_workload`` reads them by position
    and derives the row's times and costs
    (:func:`repro.core.ima.workload_row`)."""

    text_hash: int
    session_id: int
    timestamp: float
    optimize_time_s: float
    wallclock_s: float
    estimate: "Cost"
    used_indexes: str
    metrics: "ExecutionMetrics"
    monitor_time_s: float


class ReferenceRecord(NamedTuple):
    """Statement -> database object usage (figure 3's ``References``)."""

    text_hash: int
    object_type: str  # "table" | "attribute" | "index"
    object_name: str
    table_name: str
    frequency: int


class TableUsageRecord(NamedTuple):
    """Aggregated per-table usage (figure 3's ``Tables``)."""

    table_name: str
    frequency: int


class AttributeUsageRecord(NamedTuple):
    """Aggregated per-attribute usage (figure 3's ``Attributes``)."""

    table_name: str
    attribute_name: str
    frequency: int


class IndexUsageRecord(NamedTuple):
    """Aggregated per-index usage (figure 3's ``Indexes``)."""

    index_name: str
    table_name: str
    frequency: int


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
