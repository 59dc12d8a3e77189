"""Plan compilation, execution and per-query work accounting.

Compiling turns a plan into a tree of steps once: per node its scope,
``ScopeIndex``, declared column types, filter kernel factory (with the
``Literal`` nodes it binds), projection positions and join / sort /
aggregate getters.  Running binds one execution's literal vector to
those steps and pulls the row batches, flattened once at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.execution import joins, modify, scan, shaping
from repro.execution.evaluator import Params
from repro.execution.scan import Batches, Counters, Step, StorageCatalog
from repro.optimizer import plans
from repro.storage.buffer_pool import BufferPool


@dataclass(frozen=True)
class ExecutionMetrics:
    """Work performed by one statement, in engine units.

    ``logical_reads`` counts buffer-pool page requests (hits + misses),
    the I/O measure comparable with the optimizer's estimates, and
    ``physical_reads``/``physical_writes`` its disk traffic: each the
    statement's own, counted by the thread that ran it.
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

    def __init__(self, catalog: StorageCatalog, pool: BufferPool) -> None:
        self._catalog = catalog
        self._pool = pool

    # staticcheck: hotpath
    def execute(self, program: Program | plans.PlanNode,
                output_names: tuple[str, ...],
                params: Sequence[Any] | None = None,
                undo: Callable[[Callable[[], None]], None] | None = None,
                counted: dict[int, int] | None = None) -> QueryResult:
        """Materialize the program's output and measure the work done.

        A bare plan is compiled for this execution only.  ``params`` is
        the literal vector of the text being executed when the plan was
        built for another text of the same shape; ``undo`` receives the
        inverse of every change a writing plan applies (the
        transaction's undo log).  Given ``counted``, the execution runs a
        variant compiled for it alone that fills ``counted`` with the rows
        each plan node put out, by ``id`` of the node (see
        :func:`_compile`)."""
        if not isinstance(program, Program):
            program = Program(program)
        step = program.step
        if counted is not None:
            step = _compile(program.plan, self._catalog, params, False,
                            counted)
        elif step is None:
            step = program.step = compile_plan(program.plan, self._catalog,
                                               params)
        tally = self._pool.tally
        requests, misses, writes = \
            tally.requests, tally.misses, tally.writes
        counters = Counters(params, undo)
        rows = [*chain.from_iterable(step(counters))]
        metrics = ExecutionMetrics(
            logical_reads=tally.requests - requests,
            physical_reads=tally.misses - misses,
            physical_writes=tally.writes - writes,
            tuples_processed=counters.tuples,
            rows_returned=len(rows),
        )
        return QueryResult(columns=output_names, rows=rows, metrics=metrics)


def compile_plan(plan: plans.PlanNode, catalog: StorageCatalog,
                 params: Params) -> Step:
    """Compile ``plan`` into its root step; ``params`` decides literal
    kinds only (see :class:`Program`)."""
    return _compile(plan, catalog, params, False)


# staticcheck: hotpath
def _compile(plan: plans.PlanNode, catalog: StorageCatalog, params: Params,
             single: bool, counted: dict[int, int] | None = None) -> Step:
    """``single`` (see :data:`~repro.execution.scan.Step`): a LIMIT's
    input, the one consumer that stops early, down to the first operator
    that takes all of its input first (sort, aggregate, a join's inner).
    ``counted`` (None: not counting) receives the output rows of every
    node not ``single`` (whose output is cut short), keyed by its ``id``."""
    kind = type(plan)
    compiler = _COMPILERS.get(kind)
    if compiler is None:
        raise ExecutionError(f"no executor for plan node {plan!r}")
    # A writing plan reads its access path itself, as (rowid, row) pairs.
    children = () if kind is plans.ModifyPlan else plan.children
    blocking = kind in (plans.SortPlan, plans.AggregatePlan)
    first = (single or kind is plans.LimitPlan) and not blocking
    step = compiler(plan, catalog, params, single, *[
        _compile(child, catalog, params, first and position == 0, counted)
        for position, child in enumerate(children)])
    if counted is not None and not single:
        return _counting(step, id(plan), counted)
    if single and blocking:
        # What it outputs counts nothing: hand it over a row at a time.
        return lambda counters: chain.from_iterable(map(zip, step(counters)))
    return step


def _counting(step: Step, key: int, counted: dict[int, int]) -> Step:
    """``step``, adding the rows of each batch it yields to ``counted[key]``."""
    counted[key] = 0

    def counting(counters: Counters) -> Batches:
        for batch in step(counters):
            counted[key] += len(batch)
            yield batch

    return counting


# Plan node type -> ``compiler(plan, catalog, params, single, *children's steps)``.
_COMPILERS: dict[type, Callable[..., Step]] = {
    **dict.fromkeys(scan.ACCESS_PATHS, scan.scan_step),
    plans.ModifyPlan: modify.modify_step,
    plans.InsertPlan: modify.insert_step,
    plans.EmptySourcePlan: lambda *_: lambda counters: iter([[()]]),
    plans.FilterPlan: shaping.filter_step,
    plans.ProjectPlan: shaping.project_step,
    plans.AggregatePlan: shaping.aggregate_step,
    plans.SortPlan: shaping.sort_step,
    plans.DistinctPlan: shaping.distinct_step,
    plans.LimitPlan: shaping.limit_step,
    plans.NestedLoopJoinPlan: joins.nested_loop_step,
    plans.HashJoinPlan: joins.hash_join_step,
    plans.IndexLookupJoinPlan: joins.index_lookup_step,
}
