"""The integrated monitor: in-core sensors feeding ring buffers.

:class:`IntegratedMonitor` owns the bounded in-memory structures of
figure 3; :class:`MonitorSensors` is the one sensor implementation, the
code "compiled into" an engine whose ``sensors`` it is.  An engine
without it (the *Original* setup) runs none of this module.  The
sensors time themselves with a high-resolution counter so that the
share of monitoring in total statement time (figure 5) and the per-call
overhead (section V-A's 1–2 µs measurement) can be reported.

Recording
---------
A statement is recorded once, at its end, by its terminal sensor
(:meth:`MonitorSensors.execute_complete`): one read of the ladder
level decides everything the statement records, one clock read stamps
it, and one acquisition of the monitor's lock bumps its statement
entry in place, passes the admission gate and appends its workload
record.  That record keeps what the sensor holds — the plan's
estimate, the executor's metrics, the times — and ``ima_workload``
derives the row's costs when the daemon reads it, in one batch off the
statement path.  Only the execution that inserts the statement's
entry logs its references and plan — the "better caching strategy"
the paper proposes to shrink the 1m-test overhead.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.clock import Clock, SystemClock
from repro.config import MonitorConfig
from repro.core.ima import (
    ATTRIBUTES,
    INDEXES,
    PLANS,
    REFERENCES,
    STATEMENTS,
    STATISTIC_FIELDS,
    STATISTICS,
    TABLES,
)
from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer
from repro.core.sensors import StatementContext
from repro.execution.executor import ExecutionMetrics
from repro.optimizer.cost_model import Cost
from repro.optimizer.plans import format_misses, misses_line, node_estimates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.optimizer import OptimizationResult

STATISTICS_MIN_INTERVAL_S = 1.0

#: Ring capacity of each statement→object reference buffer
#: (references, tables, attributes, indexes).
REFERENCE_BUFFER_SIZE = 8000
#: Ring capacity for system-wide statistics samples.
STATISTICS_BUFFER_SIZE = 2000
#: Ring capacity for captured plans.
PLAN_BUFFER_SIZE = 200
#: A SELECT whose estimated cost reaches this has its plan text captured
#: (AWR-style top-query plans).
PLAN_CAPTURE_MIN_COST = 100.0
#: A node of a captured plan whose own row estimate missed its actual
#: rows by this factor is named in the plan's text.
ROW_MISS_FACTOR = 4.0
#: Captured query texts are truncated to this many characters (the
#: statement hash still covers the full text).
MAX_STATEMENT_TEXT = 1024

#: Degradation ladder levels (:mod:`repro.core.overload` decides them and
#: re-exports these names).  Plain ints: the admission gate compares
#: them on the per-statement hot path, where enum attribute access is
#: measurably slower.
DETAILED = 0
SAMPLED = 1
COUNTS_ONLY = 2
SHED = 3

# What a failed statement's workload record reports: no work done;
# and a statement without a plan: no estimate.
_NO_WORK = ExecutionMetrics()
_NO_ESTIMATE = Cost()


class IntegratedMonitor:
    """Bounded in-memory monitor data (the IMA-visible state)."""

    def __init__(self, config: MonitorConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or MonitorConfig()
        self.clock = clock or SystemClock()
        # One lock for everything a statement's terminal sensor writes:
        # the statement and workload rings share it with the counters
        # below, so a statement is recorded in one critical section.
        self._lock = threading.Lock()
        # Each ring holds its table's records (repro.core.ima).
        self.statements: KeyedRingBuffer[int, Any] = \
            KeyedRingBuffer(STATEMENTS.record,
                            self.config.statement_buffer_size, self._lock,
                            refresh="last_seen")
        # Executions, each a bare tuple in WORKLOAD.record's field order.
        self.workload: RingBuffer[tuple] = \
            RingBuffer(self.config.workload_buffer_size, self._lock)
        self.references: KeyedRingBuffer[tuple, Any] = \
            KeyedRingBuffer(REFERENCES.record, REFERENCE_BUFFER_SIZE)
        self.tables: KeyedRingBuffer[str, Any] = \
            KeyedRingBuffer(TABLES.record, REFERENCE_BUFFER_SIZE)
        self.attributes: KeyedRingBuffer[tuple, Any] = \
            KeyedRingBuffer(ATTRIBUTES.record, REFERENCE_BUFFER_SIZE)
        self.indexes: KeyedRingBuffer[tuple, Any] = \
            KeyedRingBuffer(INDEXES.record, REFERENCE_BUFFER_SIZE)
        self.statistics: RingBuffer[tuple] = \
            RingBuffer(STATISTICS_BUFFER_SIZE)
        # A plan captured again replaces the one kept.
        self.plans: KeyedRingBuffer[int, Any] = \
            KeyedRingBuffer(PLANS.record, PLAN_BUFFER_SIZE,
                            refresh="estimated_cost")
        self.sensor_calls = 0
        self.sensor_time_s = 0.0
        self._last_statistics_at = float("-inf")
        # The one copy of the ladder level, set by the overload
        # controller (repro.core.overload), read once by each
        # statement's terminal sensor.  The conservation counters keep
        # `issued == admitted + sampled_out + shed` exact at
        # quiescence, where admitted is the workload ring's
        # total_appended.
        self.degradation_level = DETAILED
        self._sample_k = max(1, self.config.overload.sample_k)
        self._sample_counter = 0
        self.issued = 0
        self.sampled_out = 0
        self.shed = 0

    # -- recording -------------------------------------------------------

    # staticcheck: coldpath(new-statement-only)
    def record_statement(self, text: str, text_hash: int,
                         now: float) -> bool:
        """Upsert the statement record; True if the hash was new.

        The insert and the was-it-known check are one critical section
        (``upsert``): a separate containment probe would let two racing
        sessions both see a miss and both report the statement as new,
        double-logging its object references.
        """
        return self.statements.upsert(text_hash, STATEMENTS.record(
            text_hash=text_hash, query_text=text[:MAX_STATEMENT_TEXT],
            frequency=1, first_seen=now, last_seen=now,
        ))

    # staticcheck: coldpath(statement-cache-miss-only)
    def record_references(self, text_hash: int,
                          table_names: Sequence[str],
                          columns: Sequence[tuple[str, str]] = (),
                          indexes: Iterable[tuple[str, str]] = ()) -> None:
        """Log statement-to-object references (logged at the source: the
        names are already in hand from parsing/optimizing)."""
        for table in table_names:
            self._reference(text_hash, "table", table, table)
            self.tables.upsert(table, TABLES.record(table, 1))
        for table, column in columns:
            qualified = f"{table}.{column}"
            self._reference(text_hash, "attribute", qualified, table)
            self.attributes.upsert((table, column),
                                   ATTRIBUTES.record(table, column, 1))
        for index, table in indexes:
            self._reference(text_hash, "index", index, table)
            self.indexes.upsert((index, table),
                                INDEXES.record(index, table, 1))

    def _reference(self, text_hash: int, object_type: str,
                   object_name: str, table_name: str) -> None:
        self.references.upsert(
            (text_hash, object_type, object_name),
            REFERENCES.record(text_hash, object_type, object_name,
                              table_name, 1))

    # -- degradation ladder (repro.core.overload) --------------------------

    def set_degradation(self, level: int) -> None:
        """Apply a ladder level decided by the overload controller;
        statements that end from now on are recorded at it."""
        with self._lock:
            self.degradation_level = level

    # staticcheck: guarded-by(_lock)
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

    def degradation_counters(self) -> tuple[int, int, int]:
        """``(issued, sampled_out, shed)`` read atomically."""
        with self._lock:
            return self.issued, self.sampled_out, self.shed

    # staticcheck: coldpath(plan-capture-miss-only)
    def record_plan(self, text_hash: int, estimated_cost: float,
                    nodes: Sequence[tuple], plan_text: str,
                    now: float) -> None:
        """Keep the latest captured plan per statement hash.  Its text ends
        with the nodes whose estimate missed by :data:`ROW_MISS_FACTOR`
        on the execution of its first capture, the one that counted the
        rows of its ``nodes`` (:func:`~repro.optimizer.plans.
        node_estimates`); a later capture keeps that line."""
        if nodes:
            plan_text += format_misses(nodes, ROW_MISS_FACTOR)
        else:
            kept = self.plans.get(text_hash)
            if kept is not None:
                plan_text += misses_line(kept.plan_text)
        self.plans.upsert(text_hash, PLANS.record(text_hash, estimated_cost,
                                                  plan_text, now))

    # staticcheck: coldpath(rate-limited-1-per-s)
    def record_statistics(self, values: Mapping[str, Any],
                          now: float) -> bool:
        """Append a statistics sample, rate-limited so per-statement
        sampling does not flood the buffer: ``values`` of the
        :data:`~repro.core.ima.STATISTIC_FIELDS`, a missing one read as
        0, others ignored."""
        with self._lock:
            if now - self._last_statistics_at < STATISTICS_MIN_INTERVAL_S:
                return False
            self._last_statistics_at = now
        sample = STATISTICS.record(
            now, *[values.get(name, 0) for name in STATISTIC_FIELDS])
        # The statistics ring takes its own lock, not the monitor's.
        self.statistics.append(sample)  # staticcheck: ignore[LCK001]
        return True

    # -- introspection ------------------------------------------------------

    @property
    def average_sensor_call_s(self) -> float:
        with self._lock:
            if self.sensor_calls == 0:
                return 0.0
            return self.sensor_time_s / self.sensor_calls

    def reset_counters(self) -> None:
        with self._lock:
            self.sensor_calls = 0
            self.sensor_time_s = 0.0


class MonitorSensors:
    """The in-core sensors, writing into the monitor.

    One object serves every session of the engine.  A statement the
    session has to parse fires ``statement_start``, ``parse_complete``
    and, for a SELECT, ``optimize_complete``: each only notes what it
    learnt on the :class:`StatementContext`.  A plan-cache hit fires
    none of them — its ``PreparedStatement`` carries the same facts
    under the same names.  Either way the statement ends in
    ``execute_complete`` (``statement_error`` for a failure), which
    records all of it and counts it as the figure-2 sensor points it
    passed: 4 for a SELECT, 3 for any other statement.
    """

    def __init__(self, monitor: IntegratedMonitor) -> None:
        self.monitor = monitor
        # The rings the terminal sensor writes under the monitor's lock.
        self._statements = monitor.statements
        self._workload = monitor.workload

    # staticcheck: hotpath
    def statement_start(self, text_hash: int) -> StatementContext:
        """A statement the session has to parse begins: its context,
        keyed by ``text_hash``, the text's :func:`statement_key`."""
        return StatementContext(text_hash)  # staticcheck: allocfree(per-parsed-statement-context-is-the-product)

    # staticcheck: hotpath
    def parse_complete(self, ctx: StatementContext, kind: str,
                       table_names: tuple[str, ...]) -> None:
        """Called when the parser has resolved the statement's
        ``kind`` and tables."""
        ctx.kind = kind
        ctx.tables = table_names

    # staticcheck: hotpath
    def optimize_complete(self, ctx: StatementContext,
                          optimized: "OptimizationResult",
                          optimize_time_s: float) -> None:
        """Called with the optimizer's result for a SELECT the session
        planned: one expensive enough to have its plan captured, and
        with none captured yet, runs counting its nodes' rows, into
        ``ctx.counted``."""
        ctx.optimized = optimized
        ctx.optimize_time_s = optimize_time_s
        cost = optimized.estimated_cost
        if (cost.io + cost.cpu >= PLAN_CAPTURE_MIN_COST
                and ctx.shape_hash not in self.monitor.plans):
            ctx.counted = {}

    # staticcheck: hotpath
    def execute_complete(self, statement: Any, text: str, session_id: int,
                         metrics: ExecutionMetrics, wallclock_s: float,
                         statistics: Callable[[], Mapping[str, Any]] | None,
                         ) -> None:
        """Record a statement of session ``session_id`` that ended:
        ``statement`` is its prepared statement or its context, ``text``
        the text it ran, ``metrics`` the executor's and ``wallclock_s``
        its time.  ``statistics`` supplies a system-wide statistics
        sample, called only when one is due."""
        t0 = perf_counter()
        monitor = self.monitor
        # The statement's one read of the ladder level, without the
        # lock: it decides the bump, the references, the gate and the
        # append, so a transition that races the statement only
        # decides which rung it is recorded at.  SHED records nothing,
        # not even the clock read; COUNTS_ONLY keeps the statement
        # bump but logs no references.
        level = monitor.degradation_level
        # The statement's one clock read: its row's timestamp and its
        # statement record's last_seen.
        now = monitor.clock.now() if level < SHED else 0.0  # staticcheck: allocfree(one-clock-read-per-statement)
        kind = statement.kind
        # DML records no estimate, prepared or not.
        optimized = statement.optimized if kind == "select" else None
        if optimized is None:
            estimate, used_indexes = _NO_ESTIMATE, ""
        else:
            estimate = optimized.estimated_cost
            used_indexes = optimized.used_indexes_text
        text_hash = statement.shape_hash
        # WORKLOAD.record's fields as a bare tuple (the namedtuple would
        # cost an allocation and a call more): what is in hand, never
        # the plan; ima_workload derives the row's columns.
        record = (text_hash, session_id, now, statement.optimize_time_s,
                  wallclock_s, estimate, used_indexes, metrics,
                  perf_counter() - t0)
        with monitor._lock:
            # A statement that failed before its parse has no record.
            known = (kind is None or level == SHED
                     or self._statements.bump_held(text_hash, (now,)))
            # The admission gate: every statement is issued, and
            # admitted, sampled out or shed, so conservation stays
            # exact under every ladder state.
            monitor.issued += 1
            if level == DETAILED or monitor._admit_degraded(level):
                self._workload.append_held(record)
            monitor.sensor_calls += 2 + (kind is not None) \
                + (optimized is not None)
            t1 = perf_counter()
            monitor.sensor_time_s += t1 - t0
        logged = (not known
                  and monitor.record_statement(text, text_hash, now)
                  and level < COUNTS_ONLY)
        if logged:
            self._log_objects(statement, optimized, now)
        # An advisory read without the lock: record_statistics re-checks
        # under it, so a stale read only delays or drops one sample.
        sampled = (statistics is not None and level < SHED
                   and now - monitor._last_statistics_at
                   >= STATISTICS_MIN_INTERVAL_S)
        if sampled:
            self.sample_statistics(statistics, now)
        if logged or sampled:
            with monitor._lock:
                monitor.sensor_time_s += perf_counter() - t1

    def _log_objects(self, statement: Any,
                     optimized: "OptimizationResult | None",
                     now: float) -> None:
        """The execution that inserted the statement's record logs its
        object references and — for a SELECT expensive enough — its
        plan text, rendered only then."""
        monitor = self.monitor
        text_hash = statement.shape_hash
        if optimized is None:
            monitor.record_references(text_hash, statement.tables)
            return
        monitor.record_references(text_hash, statement.tables,
                                  optimized.referenced_columns,
                                  optimized.plan.index_tables().items())
        cost = optimized.estimated_cost
        estimated_total = cost.io + cost.cpu
        if estimated_total >= PLAN_CAPTURE_MIN_COST:
            # A plan the session just made ran counting its nodes' rows.
            counted = getattr(statement, "counted", None)
            nodes = node_estimates(optimized.plan, counted) if counted else ()
            monitor.record_plan(text_hash, estimated_total, nodes,
                                optimized.explain(), now)

    def statement_error(self, statement: Any, text: str, session_id: int,
                        error: str) -> None:
        """Called when a statement fails anywhere in the pipeline."""
        # Errors still count as executions, with no work done, so that
        # the statement history shows failing statements; they pass
        # the same gate, so they stay inside the conservation ledger.
        self.execute_complete(statement, text, session_id, _NO_WORK, 0.0,
                              None)

    # staticcheck: coldpath(rate-limited-1-per-s)
    def sample_statistics(self, supplier: Callable[[], Mapping[str, Any]],
                          now: float) -> None:
        """Record a sample of system-wide statistics (sessions, locks,
        cache usage, ...) at ``now``, the wall-clock time of the
        statement whose terminal sensor found one due: ``supplier`` is
        invoked only then, so gathering the values costs at most once
        per :data:`STATISTICS_MIN_INTERVAL_S`."""
        self.monitor.record_statistics(supplier(), now)
