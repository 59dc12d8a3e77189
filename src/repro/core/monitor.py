"""The integrated monitor: in-core sensors feeding ring buffers.

:class:`IntegratedMonitor` owns the bounded in-memory structures of
figure 3; :class:`MonitorSensors` is the one sensor implementation, the
code "compiled into" an engine whose ``sensors`` it is.  An engine
without it (the *Original* setup) runs none of this module.  Each
sensor call is timed with a high-resolution counter so that the share
of monitoring in total statement time (figure 5) and the per-call
overhead (section V-A's 1–2 µs measurement) can be reported.

Admission
---------
How much a statement records is decided once, from the ladder level
``statement_start`` stamps on its context and from whether the
execution inserted the statement's record: only that execution logs
references and a plan (the "better caching strategy" the paper
proposes to shrink the 1m-test overhead).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.clock import Clock, SystemClock
from repro.config import MonitorConfig
from repro.core.records import (
    AttributeUsageRecord,
    IndexUsageRecord,
    PlanRecord,
    ReferenceRecord,
    StatementRecord,
    StatisticsRecord,
    TableUsageRecord,
    WorkloadRecord,
)
from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer
from repro.core.sensors import StatementContext, statement_key
from repro.execution.executor import ExecutionMetrics
from repro.optimizer.cost_model import Cost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import OptimizationResult

STATISTICS_MIN_INTERVAL_S = 1.0

#: Ring capacity of each statement→object reference buffer
#: (references, tables, attributes, indexes).
REFERENCE_BUFFER_SIZE = 8000
#: Ring capacity for system-wide statistics samples.
STATISTICS_BUFFER_SIZE = 2000

#: Degradation ladder levels (:mod:`repro.core.overload` decides them and
#: re-exports these names).  Plain ints: the admission gate compares
#: them on the per-statement hot path, where enum attribute access is
#: measurably slower.
DETAILED = 0
SAMPLED = 1
COUNTS_ONLY = 2
SHED = 3

# What a failed statement's workload record reports: no work done.
_NO_WORK = ExecutionMetrics()
_NO_COST = Cost()

# Builds a record from its fields in order, without the NamedTuple's
# ``__new__`` frame (the per-statement workload record).
_new_record = tuple.__new__


class IntegratedMonitor:
    """Bounded in-memory monitor data (the IMA-visible state)."""

    def __init__(self, config: MonitorConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or MonitorConfig()
        self.clock = clock or SystemClock()
        self.statements: KeyedRingBuffer[int, StatementRecord] = \
            KeyedRingBuffer(self.config.statement_buffer_size)
        self.workload: RingBuffer[WorkloadRecord] = \
            RingBuffer(self.config.workload_buffer_size)
        self.references: KeyedRingBuffer[tuple, ReferenceRecord] = \
            KeyedRingBuffer(REFERENCE_BUFFER_SIZE)
        self.tables: KeyedRingBuffer[str, TableUsageRecord] = \
            KeyedRingBuffer(REFERENCE_BUFFER_SIZE)
        self.attributes: KeyedRingBuffer[tuple, AttributeUsageRecord] = \
            KeyedRingBuffer(REFERENCE_BUFFER_SIZE)
        self.indexes: KeyedRingBuffer[tuple, IndexUsageRecord] = \
            KeyedRingBuffer(REFERENCE_BUFFER_SIZE)
        self.statistics: RingBuffer[StatisticsRecord] = \
            RingBuffer(STATISTICS_BUFFER_SIZE)
        self.plans: KeyedRingBuffer[int, PlanRecord] = \
            KeyedRingBuffer(self.config.plan_buffer_size)
        # Sensors fire on every session thread, so the overhead
        # accounting and the statistics rate limiter are guarded; the
        # ring buffers above carry their own internal locks.
        self._counter_lock = threading.Lock()
        self.sensor_calls = 0  # staticcheck: shared(_counter_lock)
        self.sensor_time_s = 0.0  # staticcheck: shared(_counter_lock)
        self._last_statistics_at = float("-inf")  # staticcheck: shared(_counter_lock)
        # The one copy of the ladder level, set by the overload
        # controller (repro.core.overload), stamped by each statement at
        # its start.  The conservation counters keep `issued ==
        # admitted + sampled_out + shed` exact at quiescence, where
        # admitted is the workload ring's total_appended.
        self.degradation_level = DETAILED  # staticcheck: shared(_counter_lock)
        self._sample_k = max(1, self.config.overload.sample_k)
        self._sample_counter = 0  # staticcheck: shared(_counter_lock)
        self.issued = 0  # staticcheck: shared(_counter_lock)
        self.sampled_out = 0  # staticcheck: shared(_counter_lock)
        self.shed = 0  # staticcheck: shared(_counter_lock)

    # -- recording -------------------------------------------------------

    # staticcheck: hotpath
    def record_statement(self, text: str, text_hash: int,
                         now: float) -> bool:
        """Upsert the statement record; True if the hash was new.

        Plan-cache hits — the per-statement common case — take the
        allocation-free ``bump`` path: one lock acquisition and no
        closure or record construction on the hot path.
        """
        if self.statements.bump(text_hash, StatementRecord.bumped, now):
            return False
        return self._insert_statement(text, text_hash, now)

    # staticcheck: coldpath(new-statement-only)
    def _insert_statement(self, text: str, text_hash: int,
                          now: float) -> bool:
        """Statement-cache miss: build and insert the record (or
        refresh it when another session won the insert race).

        The insert and the was-it-known check are one critical section
        (``upsert``): a separate containment probe would let two racing
        sessions both see a miss and both report the statement as new,
        double-logging its object references.
        """
        limit = self.config.max_statement_text
        return self.statements.upsert(
            text_hash,
            create=lambda: StatementRecord(
                text_hash=text_hash,
                text=text if len(text) <= limit else text[:limit],
                frequency=1, first_seen=now, last_seen=now,
            ),
            update=lambda record: record.bumped(now),
        )

    # staticcheck: coldpath(statement-cache-miss-only)
    def record_references(self, text_hash: int,
                          table_names: Sequence[str],
                          columns: Sequence[tuple[str, str]] = (),
                          index_names: Sequence[str] = ()) -> None:
        """Log statement-to-object references (logged at the source: the
        names are already in hand from parsing/optimizing)."""
        for table in table_names:
            self._reference(text_hash, "table", table, table)
            self.tables.upsert(
                table,
                create=lambda t=table: TableUsageRecord(t, 1),
                update=lambda record: record.bumped(),
            )
        for table, column in columns:
            qualified = f"{table}.{column}"
            self._reference(text_hash, "attribute", qualified, table)
            self.attributes.upsert(
                (table, column),
                create=lambda t=table, c=column: AttributeUsageRecord(t, c, 1),
                update=lambda record: record.bumped(),
            )
        for index in index_names:
            self._reference(text_hash, "index", index, "")
            self.indexes.upsert(
                (index, ""),
                create=lambda i=index: IndexUsageRecord(i, "", 1),
                update=lambda record: record.bumped(),
            )

    def _reference(self, text_hash: int, object_type: str,
                   object_name: str, table_name: str) -> None:
        self.references.upsert(
            (text_hash, object_type, object_name),
            create=lambda: ReferenceRecord(
                text_hash=text_hash, object_type=object_type,
                object_name=object_name, table_name=table_name, frequency=1,
            ),
            update=lambda record: record.bumped(),
        )

    # -- degradation ladder (repro.core.overload) --------------------------

    def set_degradation(self, level: int) -> None:
        """Apply a ladder level decided by the overload controller;
        statements that start from now on are recorded at it."""
        with self._counter_lock:
            self.degradation_level = level

    # staticcheck: guarded-by(_counter_lock)
    def _admit_degraded(self, level: int) -> bool:
        """The gate's decision below DETAILED, counting what it drops."""
        if level == SAMPLED:
            self._sample_counter += 1
            if self._sample_counter >= self._sample_k:
                self._sample_counter = 0
                return True
            self.sampled_out += 1
            return False
        if level == COUNTS_ONLY:
            self.sampled_out += 1
            return False
        self.shed += 1
        return False

    # staticcheck: hotpath
    def complete_statement(self, record: WorkloadRecord, level: int,
                           sensor_calls: int, monitor_time_s: float,
                           started: float) -> float:
        """What a statement's terminal sensor does, in one critical
        section: pass the admission gate — count one issued statement,
        decide by ``level`` (the rung the statement started on, one
        value for both the counter and the append) whether ``record``
        is admitted at full detail and append it if so — and fold the
        statement's sensor tally (``sensor_calls`` fires, and
        ``monitor_time_s`` plus the terminal sensor's own time, which
        began at ``started`` and is read here, last) into the counters.
        Returns that total."""
        with self._counter_lock:
            self.issued += 1
            if level == DETAILED or self._admit_degraded(level):
                self.workload.append(record)
            total = monitor_time_s + (time.perf_counter() - started)
            self.sensor_calls += sensor_calls
            self.sensor_time_s += total
        return total

    def degradation_counters(self) -> tuple[int, int, int]:
        """``(issued, sampled_out, shed)`` read atomically."""
        with self._counter_lock:
            return self.issued, self.sampled_out, self.shed

    # staticcheck: coldpath(plan-capture-miss-only)
    def record_plan(self, text_hash: int, estimated_cost: float,
                    plan_text: str, now: float) -> None:
        """Keep the latest captured plan per statement hash."""
        self.plans.upsert(
            text_hash,
            create=lambda: PlanRecord(text_hash, estimated_cost,
                                      plan_text, now),
            update=lambda _old: PlanRecord(text_hash, estimated_cost,
                                           plan_text, now),
        )

    # staticcheck: coldpath(rate-limited-1-per-s)
    def record_statistics(self, values: Mapping[str, Any],
                          now: float) -> bool:
        """Append a statistics sample, rate-limited so per-statement
        sampling does not flood the buffer."""
        with self._counter_lock:
            if now - self._last_statistics_at < STATISTICS_MIN_INTERVAL_S:
                return False
            self._last_statistics_at = now
        known = {
            key: value for key, value in values.items()
            if key in StatisticsRecord._fields
        }
        self.statistics.append(StatisticsRecord(timestamp=now, **known))
        return True

    # -- introspection ------------------------------------------------------

    # staticcheck: hotpath
    def note_sensor_call(self, elapsed_s: float) -> None:
        """Account one sensor call's overhead (section V-A's per-call
        measurement); called from every session thread."""
        with self._counter_lock:
            self.sensor_calls += 1
            self.sensor_time_s += elapsed_s

    def statistics_due(self, now: float) -> bool:
        """Whether the rate limiter would admit a statistics sample at
        ``now`` (advisory read; :meth:`record_statistics` re-checks
        under the lock)."""
        # Deliberate benign race: a stale read only delays or dupes the
        # *advisory* answer, and the authoritative check re-reads under
        # _counter_lock.  Taking the lock here would put an acquisition
        # on every per-statement sampling probe.
        return now - self._last_statistics_at >= STATISTICS_MIN_INTERVAL_S

    @property
    def average_sensor_call_s(self) -> float:
        with self._counter_lock:
            if self.sensor_calls == 0:
                return 0.0
            return self.sensor_time_s / self.sensor_calls

    def reset_counters(self) -> None:
        with self._counter_lock:
            self.sensor_calls = 0
            self.sensor_time_s = 0.0


class MonitorSensors:
    """The in-core sensors, writing into the monitor; every call is
    cheap and times itself with ``time.perf_counter`` — the 1-2
    microsecond calls section V-A talks about.

    One object serves every session of the engine: the session id each
    statement is attributed to arrives with ``statement_start``.  A
    session fires ``statement_start``; then ``parse_complete`` and, for
    a SELECT, ``optimize_complete``, unless the statement was prepared;
    then ``execute_complete`` and ``sample_statistics``, or
    ``statement_error``.
    """

    def __init__(self, monitor: IntegratedMonitor) -> None:
        self.monitor = monitor
        # Pre-bound fast-path callables: the plan-cache-hit path pays
        # one attribute walk per sensor fire instead of two or three.
        self._record_statement = monitor.record_statement
        self._complete_statement = monitor.complete_statement

    # staticcheck: hotpath
    def statement_start(self, text: str, session_id: int = 0,
                        text_hash: int | None = None,
                        prepared: Any = None) -> StatementContext:
        """Wallclock start + query text capture.  ``text_hash`` is the
        statement's :func:`statement_key` where the caller has it.

        ``prepared`` is the session's prepared statement for ``text``
        (its ``kind``, ``tables`` and ``optimized`` plan) when it has
        one: this call then also records what :meth:`parse_complete`
        and — for a SELECT — :meth:`optimize_complete` would, counted as
        those sensors, and the caller fires neither."""
        t0 = time.perf_counter()
        if text_hash is None:
            text_hash = statement_key(text)
        # The statement's one read of the ladder level, without the
        # lock: every later sensor and the admission gate decide by
        # this stamp, so a transition that races the statement only
        # decides which rung it is recorded at.
        ctx = StatementContext(  # staticcheck: allocfree(per-statement-context-is-the-product)
            text, text_hash, session_id, self.monitor.degradation_level)
        # Deferred accounting: non-terminal sensors only bump the
        # context; the terminal sensor folds the whole statement into
        # the monitor's counters in one lock round-trip.
        ctx.sensor_calls = 1
        if prepared is not None:
            ctx.sensor_calls = 2
            self._parsed(ctx, prepared.tables)
            # DML records no estimate, as on the path that plans it.
            if prepared.kind == "select":
                ctx.sensor_calls = 3
                self._planned(ctx, prepared.optimized)
        ctx.monitor_time_s = time.perf_counter() - t0
        return ctx

    # staticcheck: hotpath
    def _parsed(self, ctx: StatementContext,
                table_names: Sequence[str]) -> None:
        """Bump the statement's record and, where this execution
        inserted it, log its table references."""
        # Ladder gating: SHED records nothing (not even the clock
        # read); COUNTS_ONLY keeps the statement frequency bump but
        # skips reference logging; SAMPLED and DETAILED record fully.
        if ctx.degradation >= SHED:
            return
        monitor = self.monitor
        # Deferred timestamping: the one wall-clock read this
        # statement pays, reused by every later sensor.
        ctx.wall_time = monitor.clock.now()
        if (self._record_statement(ctx.text, ctx.text_hash, ctx.wall_time)
                and ctx.degradation < COUNTS_ONLY):
            ctx.logs_references = True
            monitor.record_references(ctx.text_hash, table_names)

    # staticcheck: hotpath
    def _planned(self, ctx: StatementContext,
                 optimized: "OptimizationResult") -> None:
        """Record a SELECT's plan, prepared or just made: its estimate
        and used indexes and, where the parse logged the statement's
        references, its column and index references and — for a
        statement expensive enough — its plan text, rendered only
        then."""
        cost = optimized.estimated_cost
        ctx.estimated_io = cost.io
        ctx.estimated_cpu = cost.cpu
        ctx.used_indexes = optimized.used_indexes_text
        if not ctx.logs_references:
            return
        monitor = self.monitor
        monitor.record_references(ctx.text_hash, (),
                                  optimized.referenced_columns,
                                  optimized.used_indexes)
        threshold = monitor.config.plan_capture_min_cost
        estimated_total = cost.io + cost.cpu
        if 0 < threshold <= estimated_total:
            monitor.record_plan(ctx.text_hash, estimated_total,
                                optimized.explain(), ctx.wall_time)

    # staticcheck: hotpath
    def parse_complete(self, ctx: StatementContext, kind: str,
                       table_names: Sequence[str]) -> None:
        """Called when the parser has resolved the statement's
        ``kind`` and tables."""
        t0 = time.perf_counter()
        self._parsed(ctx, table_names)
        ctx.monitor_time_s += time.perf_counter() - t0
        ctx.sensor_calls += 1

    # staticcheck: hotpath
    def optimize_complete(self, ctx: StatementContext,
                          optimized: "OptimizationResult",
                          optimize_time_s: float) -> None:
        """Called with the optimizer's result for a SELECT the session
        planned (the object a prepared statement carries to
        :meth:`statement_start`)."""
        t0 = time.perf_counter()
        ctx.optimize_time_s = optimize_time_s
        self._planned(ctx, optimized)
        ctx.monitor_time_s += time.perf_counter() - t0
        ctx.sensor_calls += 1

    # staticcheck: hotpath
    def execute_complete(self, ctx: StatementContext,
                         metrics: ExecutionMetrics, actual: Cost,
                         wallclock_s: float) -> None:
        """Called after execution with the executor's ``metrics``, their
        ``actual`` cost and the statement's wallclock time."""
        t0 = time.perf_counter()
        # The monitor's gate counts this statement as issued and
        # decides by its stamped level whether the record is kept —
        # suppressed statements land in sampled_out/shed, so
        # conservation stays exact under every ladder state.
        # Positional, in the record's field order; the timestamp was
        # captured once, when the statement was parsed.
        ctx.monitor_time_s = self._complete_statement(_new_record(
            WorkloadRecord, (
                ctx.text_hash, ctx.session_id, ctx.wall_time,
                ctx.optimize_time_s, wallclock_s, wallclock_s,
                ctx.estimated_io, ctx.estimated_cpu, actual.io, actual.cpu,
                metrics.logical_reads, metrics.physical_reads,
                metrics.tuples_processed, metrics.rows_returned,
                ctx.used_indexes, ctx.monitor_time_s)),
            ctx.degradation, ctx.sensor_calls + 1, ctx.monitor_time_s, t0)

    def statement_error(self, ctx: StatementContext, error: str) -> None:
        """Called when a statement fails anywhere in the pipeline."""
        # Errors still count as executions, with no work done, so that
        # the statement history shows failing statements; they pass
        # the same gate, so they stay inside the conservation ledger.
        # One that failed before its parse read no clock yet.
        if not ctx.wall_time and ctx.degradation < SHED:
            ctx.wall_time = self.monitor.clock.now()
        self.execute_complete(ctx, _NO_WORK, _NO_COST, 0.0)

    # staticcheck: hotpath
    def sample_statistics(self, supplier: Callable[[], Mapping[str, Any]],
                          ctx: StatementContext) -> None:
        """Record a sample of system-wide statistics (sessions, locks,
        cache usage, ...) at the wall-clock time ``ctx`` read for its
        statement, if one is due: ``supplier`` is invoked only then, so
        gathering the values costs at most once per
        :data:`STATISTICS_MIN_INTERVAL_S`.  A statement that started at
        SHED read no clock and takes no sample."""
        if ctx.degradation >= SHED:
            return
        monitor = self.monitor
        now = ctx.wall_time
        if not monitor.statistics_due(now):
            return
        t0 = time.perf_counter()
        monitor.record_statistics(supplier(), now)
        monitor.note_sensor_call(time.perf_counter() - t0)
