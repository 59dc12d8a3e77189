"""Plan-to-iterator compilation and per-query work accounting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.execution import joins, modify, scan, shaping
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
                params: Sequence[Any] | None = None,
                undo: Callable[[Callable[[], None]], None] | None = None,
                ) -> QueryResult:
        """Materialize the plan's output and measure the work done.

        ``params`` is the literal vector of the text being executed
        when the plan was built for another text of the same shape;
        ``undo`` receives the inverse of every change a writing plan
        applies (the transaction's undo log)."""
        pool_before = self._pool.stats()
        disk_before = self._disk.counters()
        counters = Counters(params, undo)
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
        kind = type(plan)
        if kind in _LEAVES:
            return _LEAVES[kind](plan, self._catalog, counters)
        if kind in _UNARY:
            return _UNARY[kind](plan, self._build(plan.child, counters),
                                counters)
        if kind in _BINARY:
            return _BINARY[kind](plan, self._build(plan.left, counters),
                                 self._build(plan.right, counters), counters,
                                 self._catalog)
        if kind is plans.IndexLookupJoinPlan:
            return joins.index_lookup_join(
                plan, self._build(plan.left, counters), self._catalog,
                counters)
        if kind is _EmptySourcePlan:
            return iter([()])
        raise ExecutionError(f"no executor for plan node {plan!r}")


# Plan node type -> operator, by the operator's inputs: the storage
# catalog, one child's rows, or two children's rows (and the catalog,
# for the declared types of the columns a join filter compares).
_LEAVES = {
    **dict.fromkeys(scan.ACCESS_PATHS, scan.scan_rows),
    plans.ModifyPlan: modify.modify_rows,
    plans.InsertPlan: modify.insert_rows,
}
_UNARY = {
    plans.FilterPlan: shaping.filter_rows,
    plans.ProjectPlan: shaping.project_rows,
    plans.AggregatePlan: shaping.aggregate_rows,
    plans.SortPlan: shaping.sort_rows,
    plans.DistinctPlan: shaping.distinct_rows,
    plans.LimitPlan: shaping.limit_rows,
}
_BINARY = {
    plans.NestedLoopJoinPlan: joins.nested_loop_join,
    plans.HashJoinPlan: joins.hash_join,
    plans.LeftOuterJoinPlan: joins.left_outer_join,
}
