"""The integrated monitor: in-core sensors feeding ring buffers.

:class:`IntegratedMonitor` owns the bounded in-memory structures of
figure 3; :class:`MonitorSensors` is the sensor implementation compiled
into the engine.  Each sensor call is timed with a high-resolution
counter so that the share of monitoring in total statement time
(figure 5) and the per-call overhead (section V-A's 1–2 µs measurement)
can be reported.

Statement caching
-----------------
Re-logging table/attribute/index references for a statement hash that
is already in the buffer is skipped when
``MonitorConfig.statement_cache_enabled`` is set — the "better caching
strategy" the paper proposes to shrink the 1m-test overhead.  The
ablation benchmark toggles this flag.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping, Sequence

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
from repro.core.sensors import Sensors, StatementContext, statement_key

STATISTICS_MIN_INTERVAL_S = 1.0

# Degradation ladder levels (mirrored from repro.core.overload, which
# imports this module; plain ints because the admission gate compares
# them on the per-statement hot path).
_DETAILED = 0
_SAMPLED = 1
_COUNTS_ONLY = 2
_SHED = 3


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
            KeyedRingBuffer(self.config.reference_buffer_size)
        self.tables: KeyedRingBuffer[str, TableUsageRecord] = \
            KeyedRingBuffer(self.config.reference_buffer_size)
        self.attributes: KeyedRingBuffer[tuple, AttributeUsageRecord] = \
            KeyedRingBuffer(self.config.reference_buffer_size)
        self.indexes: KeyedRingBuffer[tuple, IndexUsageRecord] = \
            KeyedRingBuffer(self.config.reference_buffer_size)
        self.statistics: RingBuffer[StatisticsRecord] = \
            RingBuffer(self.config.statistics_buffer_size)
        self.plans: KeyedRingBuffer[int, PlanRecord] = \
            KeyedRingBuffer(self.config.plan_buffer_size)
        # Sensors fire on every session thread, so the overhead
        # accounting and the statistics rate limiter are guarded; the
        # ring buffers above carry their own internal locks.
        self._counter_lock = threading.Lock()
        self.sensor_calls = 0  # staticcheck: shared(_counter_lock)
        self.sensor_time_s = 0.0  # staticcheck: shared(_counter_lock)
        self._last_statistics_at = float("-inf")  # staticcheck: shared(_counter_lock)
        # Degradation ladder state pushed by the overload controller
        # (repro.core.overload) and applied by the admission gate.  The
        # conservation counters keep `issued == admitted + sampled_out
        # + shed` exact at quiescence, where admitted is the workload
        # ring's total_appended.
        self.degradation_level = _DETAILED  # staticcheck: shared(_counter_lock)
        self._sample_k = 1  # staticcheck: shared(_counter_lock)
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
        (``upsert_tracked``): a separate containment probe would let two
        racing sessions both see a miss and both report the statement as
        new, double-logging its object references.
        """
        limit = self.config.max_statement_text
        _record, created = self.statements.upsert_tracked(
            text_hash,
            create=lambda: StatementRecord(
                text_hash=text_hash,
                text=text if len(text) <= limit else text[:limit],
                frequency=1, first_seen=now, last_seen=now,
            ),
            update=lambda record: record.bumped(now),
        )
        return created

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

    # staticcheck: hotpath
    def record_workload(self, record: WorkloadRecord) -> int:
        return self.workload.append(record)

    # -- degradation ladder (repro.core.overload) --------------------------

    # staticcheck: coldpath(controller-transitions-only)
    def set_degradation(self, level: int, sample_k: int) -> None:
        """Apply a ladder level decided by the overload controller."""
        with self._counter_lock:
            self.degradation_level = level
            self._sample_k = max(1, sample_k)

    # staticcheck: hotpath
    def admit_workload(self) -> bool:
        """The admission gate: count one issued statement and decide
        whether its workload record is admitted at full detail.

        The level is re-read under the counter lock so the decision
        always matches the counter it bumps — a controller transition
        between a caller's stale read and the count here cannot
        misattribute the statement.
        """
        with self._counter_lock:
            self.issued += 1
            return self.degradation_level == _DETAILED \
                or self._admit_degraded()

    # staticcheck: guarded-by(_counter_lock)
    def _admit_degraded(self) -> bool:
        """The gate's decision below DETAILED, counting what it drops."""
        level = self.degradation_level
        if level == _SAMPLED:
            self._sample_counter += 1
            if self._sample_counter >= self._sample_k:
                self._sample_counter = 0
                return True
            self.sampled_out += 1
            return False
        if level == _COUNTS_ONLY:
            self.sampled_out += 1
            return False
        self.shed += 1
        return False

    # staticcheck: hotpath
    def complete_statement(self, record: WorkloadRecord, sensor_calls: int,
                           monitor_time_s: float, started: float) -> float:
        """What a statement's terminal sensor does, in one critical
        section: pass the admission gate (as :meth:`admit_workload`),
        append ``record`` if admitted, and fold the statement's sensor
        tally — ``sensor_calls`` fires and ``monitor_time_s`` plus the
        terminal sensor's own time, which began at ``started`` and is
        read here, last — into the counters.  Returns that total."""
        with self._counter_lock:
            self.issued += 1
            if self.degradation_level == _DETAILED or self._admit_degraded():
                if record.timestamp == 0.0:
                    # The shard recovered from SHED mid-statement, so
                    # parse skipped the clock read; admitted records
                    # carry a real timestamp for daemon retention.
                    record = record._replace(timestamp=self.clock.now())  # staticcheck: allocfree(shed-recovery-edge-only)
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

    @property
    def shard_count(self) -> int:
        """A plain monitor is one shard (shard id 0) of the merged IMA
        seq space; :class:`~repro.core.sharding.ShardedMonitor` reports
        its real count.  Consumers (IMA, daemon) treat both uniformly."""
        return 1


class MonitorSensors(Sensors):
    """The in-core sensor implementation writing into the monitor.

    ``session_id`` (via :meth:`for_session`) binds the object to one
    session: contexts it creates carry that id even when the call site
    does not pass one, so per-session attribution in the workload view
    never silently defaults to session 0.  ``statistics_monitor``
    redirects system-statistics samples to a different monitor — the
    sharded facade points every shard-bound sensor at shard 0 so the
    global one-per-second statistics rate limit survives sharding.
    """

    def __init__(self, monitor: IntegratedMonitor, session_id: int = 0,
                 statistics_monitor: IntegratedMonitor | None = None,
                 ) -> None:
        self.monitor = monitor
        self._session_id = session_id
        self._statistics_monitor = statistics_monitor or monitor
        # Pre-bound fast-path callables: the plan-cache-hit path pays
        # one attribute walk per sensor fire instead of two or three.
        self._record_statement = monitor.record_statement
        self._complete_statement = monitor.complete_statement

    def for_session(self, session_id: int) -> "MonitorSensors":
        return MonitorSensors(self.monitor, session_id,
                              self._statistics_monitor)

    # Each sensor measures its own duration with time.perf_counter —
    # these are the 1-2 microsecond calls section V-A talks about.

    # staticcheck: hotpath
    def statement_start(self, text: str, session_id: int = 0,
                        text_hash: int | None = None,
                        prepared: Any = None) -> StatementContext:
        t0 = time.perf_counter()
        if text_hash is None:
            text_hash = statement_key(text)
        monitor = self.monitor
        # The ladder level is a benign stale read: a transition that
        # races this statement only shifts which side of it the
        # statement lands on; the admission gate re-reads the level
        # under the counter lock when it counts.
        ctx = StatementContext(  # staticcheck: allocfree(per-statement-context-is-the-product)
            text, text_hash, t0,
            session_id if session_id else self._session_id,
            monitor.degradation_level)
        # Deferred accounting: non-terminal sensors only bump the
        # context; the terminal sensor folds the whole statement into
        # the monitor's counters in one lock round-trip.
        ctx.sensor_calls = 1
        if prepared is not None:
            # A prepared statement's kind, tables and plan are known
            # before it runs: what parse_complete and optimize_complete
            # would record is recorded here, in this one timed call,
            # and counted as those two sensors.  DML records no
            # estimate, as on the path that plans it.
            plan = prepared.optimized if prepared.kind == "select" else None
            ctx.statement_kind = prepared.kind
            if plan is not None:
                cost = plan.estimated_cost
                ctx.estimated_io = cost.io
                ctx.estimated_cpu = cost.cpu
                ctx.used_indexes = plan.used_indexes_text
                ctx.sensor_calls = 3
                self._parsed(ctx, prepared.tables, plan.referenced_columns,
                             plan.used_indexes, plan.explain)
            else:
                ctx.sensor_calls = 2
                self._parsed(ctx, prepared.tables)
        ctx.monitor_time_s = time.perf_counter() - t0
        return ctx

    # staticcheck: hotpath
    def _parsed(self, ctx: StatementContext, table_names: Sequence[str],
                columns: Sequence[tuple[str, str]] = (),
                index_names: Sequence[str] = (),
                plan_supplier: Callable[[], str] | None = None) -> None:
        """Bump the statement's record and, for a statement the monitor
        does not know (or every statement, without the statement
        cache), log its object references and capture its plan."""
        monitor = self.monitor
        # Ladder gating: SHED records nothing (not even the clock
        # read); COUNTS_ONLY keeps the statement frequency bump but
        # skips reference logging; SAMPLED and DETAILED record fully.
        if ctx.degradation >= _SHED:
            return
        # Deferred timestamping: the one wall-clock read this
        # statement pays, reused by every later sensor.
        ctx.wall_time = monitor.clock.now()
        ctx.is_new = is_new = self._record_statement(
            ctx.text, ctx.text_hash, ctx.wall_time)
        if ((is_new or not monitor.config.statement_cache_enabled)
                and ctx.degradation < _COUNTS_ONLY):
            self._log_new(ctx, table_names, columns, index_names,
                          plan_supplier)

    # staticcheck: coldpath(statement-cache-miss-only)
    def _log_new(self, ctx: StatementContext, table_names: Sequence[str],
                 columns: Sequence[tuple[str, str]],
                 index_names: Sequence[str],
                 plan_supplier: Callable[[], str] | None) -> None:
        monitor = self.monitor
        monitor.record_references(ctx.text_hash, table_names, columns,
                                  index_names)
        threshold = monitor.config.plan_capture_min_cost
        estimated_total = ctx.estimated_io + ctx.estimated_cpu
        if (plan_supplier is not None and threshold > 0
                and estimated_total >= threshold):
            # ctx.wall_time: captured once, when the statement was parsed.
            monitor.record_plan(ctx.text_hash, estimated_total,
                                plan_supplier(), ctx.wall_time)

    # staticcheck: hotpath
    def parse_complete(self, ctx: StatementContext | None, kind: str,
                       table_names: Sequence[str]) -> None:
        if ctx is None:
            return
        t0 = time.perf_counter()
        ctx.statement_kind = kind
        self._parsed(ctx, table_names)
        ctx.monitor_time_s += time.perf_counter() - t0
        ctx.sensor_calls += 1

    # staticcheck: hotpath
    def optimize_complete(self, ctx: StatementContext | None,
                          estimated_io: float, estimated_cpu: float,
                          used_indexes: Sequence[str],
                          available_indexes: Sequence[str],
                          referenced_columns: Sequence[tuple[str, str]],
                          optimize_time_s: float,
                          plan_supplier: Callable[[], str] | None = None,
                          ) -> None:
        if ctx is None:
            return
        t0 = time.perf_counter()
        ctx.estimated_io = estimated_io
        ctx.estimated_cpu = estimated_cpu
        ctx.optimize_time_s = optimize_time_s
        ctx.used_indexes = ",".join(used_indexes)
        # Known since before this statement's parse_complete: its
        # references are logged (no second locked lookup to learn it).
        if ((ctx.is_new or not self.monitor.config.statement_cache_enabled)
                and ctx.degradation < _COUNTS_ONLY):
            self._log_new(ctx, (), referenced_columns, used_indexes,
                          plan_supplier)
        ctx.monitor_time_s += time.perf_counter() - t0
        ctx.sensor_calls += 1

    # staticcheck: hotpath
    def execute_complete(self, ctx: StatementContext | None,
                         actual_io: float, actual_cpu: float,
                         logical_reads: int, physical_reads: int,
                         tuples_processed: int, rows_returned: int,
                         execute_time_s: float,
                         wallclock_s: float) -> None:
        if ctx is None:
            return
        t0 = time.perf_counter()
        # The monitor's gate counts this statement as issued and
        # decides whether the record is kept — suppressed statements
        # land in sampled_out/shed, so conservation stays exact under
        # every ladder state.  Positional, in the record's field order;
        # the timestamp was captured once, when the statement was parsed.
        ctx.monitor_time_s = self._complete_statement(_new_record(  # staticcheck: allocfree(workload-record-is-the-product)
            WorkloadRecord, (
                ctx.text_hash, ctx.session_id, ctx.wall_time,
                ctx.optimize_time_s, execute_time_s, wallclock_s,
                ctx.estimated_io, ctx.estimated_cpu, actual_io, actual_cpu,
                logical_reads, physical_reads, tuples_processed,
                rows_returned, ctx.used_indexes, ctx.monitor_time_s)),
            ctx.sensor_calls + 1, ctx.monitor_time_s, t0)

    def statement_error(self, ctx: StatementContext | None,
                        error: str) -> None:
        if ctx is None:
            return
        t0 = time.perf_counter()
        # Errors still count as executions with zero cost so that the
        # statement history shows failing statements, through the same
        # gate as execute_complete: failed statements stay inside the
        # conservation ledger.
        ctx.monitor_time_s = self._complete_statement(WorkloadRecord(
            ctx.text_hash, ctx.session_id, self.monitor.clock.now(),
            ctx.optimize_time_s, 0.0, 0.0, ctx.estimated_io,
            ctx.estimated_cpu, 0.0, 0.0, 0, 0, 0, 0, "",
            ctx.monitor_time_s), ctx.sensor_calls + 1, ctx.monitor_time_s, t0)

    # staticcheck: hotpath
    def sample_statistics(self, supplier: Callable[[], Mapping[str, Any]],
                          ctx: StatementContext | None = None) -> None:
        monitor = self._statistics_monitor
        now = ctx.wall_time if ctx is not None else 0.0
        if not now:  # the statement read no clock (or there is none)
            now = monitor.clock.now()  # staticcheck: allocfree(statistics-rate-limit-needs-current-time)
        if not monitor.statistics_due(now):
            return
        t0 = time.perf_counter()
        monitor.record_statistics(supplier(), now)
        monitor.note_sensor_call(time.perf_counter() - t0)
