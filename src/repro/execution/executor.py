"""Plan-to-iterator compilation and per-query work accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import ExecutionError
from repro.execution import joins, scan, shaping
from repro.execution.scan import Counters, StorageCatalog
from repro.optimizer import plans
from repro.optimizer.optimizer import _EmptySourcePlan
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager


@dataclass(frozen=True)
class ExecutionMetrics:
    """Work performed by one statement, in engine units.

    ``logical_reads`` counts buffer-pool page accesses (hits + misses):
    this is the I/O measure comparable with the optimizer's estimates.
    ``physical_reads``/``physical_writes`` count actual disk traffic.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    tuples_processed: int = 0
    rows_returned: int = 0


@dataclass
class QueryResult:
    """Rows plus the measured execution metrics."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metrics: ExecutionMetrics

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def as_dicts(self) -> list[dict]:
        """Rows as column-keyed dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]


class Executor:
    """Runs physical plans against a storage catalog."""

    def __init__(self, catalog: StorageCatalog, pool: BufferPool,
                 disk: DiskManager) -> None:
        self._catalog = catalog
        self._pool = pool
        self._disk = disk

    def execute(self, plan: plans.PlanNode,
                output_names: tuple[str, ...],
                params: Sequence[Any] | None = None) -> QueryResult:
        """Materialize the plan's output and measure the work done.

        ``params`` is the literal vector of the text being executed
        when the plan was built for another text of the same shape."""
        pool_before = self._pool.stats()
        disk_before = self._disk.counters()
        counters = Counters(params)
        rows = list(self._build(plan, counters))
        pool_after = self._pool.stats()
        disk_after = self._disk.counters()
        metrics = ExecutionMetrics(
            logical_reads=(pool_after.hits - pool_before.hits)
            + (pool_after.misses - pool_before.misses),
            physical_reads=disk_after.reads - disk_before.reads,
            physical_writes=disk_after.writes - disk_before.writes,
            tuples_processed=counters.tuples,
            rows_returned=len(rows),
        )
        return QueryResult(columns=output_names, rows=rows, metrics=metrics)

    # -- dispatch ------------------------------------------------------------

    def _build(self, plan: plans.PlanNode,
               counters: Counters) -> Iterator[tuple]:
        if isinstance(plan, plans.SeqScanPlan):
            return scan.seq_scan(plan, self._catalog, counters)
        if isinstance(plan, plans.BTreeScanPlan):
            return scan.btree_scan(plan, self._catalog, counters)
        if isinstance(plan, plans.HashScanPlan):
            return scan.hash_scan(plan, self._catalog, counters)
        if isinstance(plan, plans.IndexScanPlan):
            return scan.index_scan(plan, self._catalog, counters)
        if isinstance(plan, plans.NestedLoopJoinPlan):
            return joins.nested_loop_join(
                plan,
                self._build(plan.left, counters),
                self._build(plan.right, counters),
                counters,
            )
        if isinstance(plan, plans.HashJoinPlan):
            return joins.hash_join(
                plan,
                self._build(plan.left, counters),
                self._build(plan.right, counters),
                counters,
            )
        if isinstance(plan, plans.LeftOuterJoinPlan):
            return joins.left_outer_join(
                plan,
                self._build(plan.left, counters),
                self._build(plan.right, counters),
                counters,
            )
        if isinstance(plan, plans.IndexLookupJoinPlan):
            return joins.index_lookup_join(
                plan,
                self._build(plan.left, counters),
                self._catalog,
                counters,
            )
        if isinstance(plan, plans.FilterPlan):
            return shaping.filter_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, plans.ProjectPlan):
            return shaping.project_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, plans.AggregatePlan):
            return shaping.aggregate_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, plans.SortPlan):
            return shaping.sort_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, plans.DistinctPlan):
            return shaping.distinct_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, plans.LimitPlan):
            return shaping.limit_rows(
                plan, self._build(plan.child, counters), counters)
        if isinstance(plan, _EmptySourcePlan):
            return iter([()])
        raise ExecutionError(f"no executor for plan node {plan!r}")
