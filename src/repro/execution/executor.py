"""Plan compilation, execution and per-query work accounting.

Compiling turns a plan into a tree of steps once: per node its scope,
``ScopeIndex``, declared column types, filter kernel factory (with the
``Literal`` nodes it binds), projection positions and join / sort /
aggregate getters.  Running binds one execution's literal vector to
those steps and pulls the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.execution import joins, modify, scan, shaping
from repro.execution.evaluator import Params
from repro.execution.scan import Counters, Step, StorageCatalog
from repro.optimizer import plans
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


class Program:
    """A plan and the steps compiled from it.  A prepared statement
    owns one (it dies with the statement's cache entry and schema
    version); an unprepared execution makes its own.  It compiles at
    its first execution, against that execution's literal vector: the
    prepared statement's vectors share one type per slot, which is all
    compiling reads of them."""

    __slots__ = ("plan", "step")

    def __init__(self, plan: plans.PlanNode) -> None:
        self.plan = plan
        self.step: Step | None = None


class Executor:
    """Runs physical plans against a storage catalog."""

    def __init__(self, catalog: StorageCatalog, pool: BufferPool,
                 disk: DiskManager) -> None:
        self._catalog = catalog
        self._pool = pool
        self._disk = disk

    # staticcheck: hotpath
    def execute(self, program: Program | plans.PlanNode,
                output_names: tuple[str, ...],
                params: Sequence[Any] | None = None,
                undo: Callable[[Callable[[], None]], None] | None = None,
                ) -> QueryResult:
        """Materialize the program's output and measure the work done.

        A bare plan is compiled for this execution only.  ``params`` is
        the literal vector of the text being executed when the plan was
        built for another text of the same shape; ``undo`` receives the
        inverse of every change a writing plan applies (the
        transaction's undo log)."""
        if not isinstance(program, Program):
            program = Program(program)
        step = program.step
        if step is None:
            step = program.step = compile_plan(program.plan, self._catalog,
                                               params)
        pool_before = self._pool.stats()
        disk_before = self._disk.counters()
        counters = Counters(params, undo)
        rows = list(step(counters))
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


# staticcheck: hotpath
def compile_plan(plan: plans.PlanNode, catalog: StorageCatalog,
                 params: Params) -> Step:
    """Compile ``plan`` into its root step; ``params`` decides literal
    kinds only (see :class:`Program`)."""
    compiler = _COMPILERS.get(type(plan))
    if compiler is None:
        raise ExecutionError(f"no executor for plan node {plan!r}")
    # A writing plan reads its access path itself, as (rowid, row) pairs.
    children = () if type(plan) is plans.ModifyPlan else plan.children
    return compiler(plan, catalog, params, *[
        compile_plan(child, catalog, params) for child in children])


# Plan node type -> step compiler: ``compiler(plan, catalog, params,
# *children's steps)``.
_COMPILERS: dict[type, Callable[..., Step]] = {
    **dict.fromkeys(scan.ACCESS_PATHS, scan.ScanStep),
    plans.ModifyPlan: modify.modify_step,
    plans.InsertPlan: modify.insert_step,
    plans.EmptySourcePlan: lambda *_: lambda counters: iter([()]),
    plans.FilterPlan: shaping.filter_step,
    plans.ProjectPlan: shaping.project_step,
    plans.AggregatePlan: shaping.aggregate_step,
    plans.SortPlan: shaping.sort_step,
    plans.DistinctPlan: shaping.distinct_step,
    plans.LimitPlan: shaping.limit_step,
    **dict.fromkeys((plans.NestedLoopJoinPlan, plans.HashJoinPlan,
                     plans.LeftOuterJoinPlan), joins.join_step),
    plans.IndexLookupJoinPlan: joins.index_lookup_step,
}
