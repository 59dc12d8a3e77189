"""Row-shaping operators: filter, project, aggregate, sort, distinct, limit."""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError
from repro.execution.evaluator import (
    ScopeIndex,
    column_position,
    compile_expression,
    compile_predicate,
    sort_key,
)
from repro.execution.scan import Counters
from repro.optimizer.plans import (
    AggregatePlan,
    DistinctPlan,
    FilterPlan,
    LimitPlan,
    ProjectPlan,
    SortPlan,
)
from repro.sql import ast_nodes as ast

RowIterator = Iterator[tuple]


def filter_rows(plan: FilterPlan, rows: RowIterator,
                counters: Counters) -> RowIterator:
    predicate = compile_predicate(plan.condition, plan.child.scope,
                                  counters.params)
    for row in rows:
        counters.tuples += 1
        if predicate(row):
            yield row


def project_rows(plan: ProjectPlan, rows: RowIterator,
                 counters: Counters) -> RowIterator:
    scope = plan.child.scope
    index = ScopeIndex(scope, counters.params)
    positions = [column_position(e, index) for e in plan.expressions]
    project: Callable[[tuple], tuple] | None
    if positions == list(range(len(scope))):
        project = None  # every child column in order: rows pass through
    elif None not in positions and len(positions) > 1:
        project = itemgetter(*positions)
    else:
        getters = [
            compile_expression(e, scope, counters.params)
            if position is None
            else itemgetter(position)
            for e, position in zip(plan.expressions, positions)]
        project = lambda row: tuple([getter(row) for getter in getters])  # noqa: E731
    for row in rows:
        counters.tuples += 1
        yield row if project is None else project(row)


def distinct_rows(plan: DistinctPlan, rows: RowIterator,
                  counters: Counters) -> RowIterator:
    seen: set = set()
    for row in rows:
        counters.tuples += 1
        key = sort_key(row)
        if key not in seen:
            seen.add(key)
            yield row


def limit_rows(plan: LimitPlan, rows: RowIterator,
               counters: Counters) -> RowIterator:
    offset = plan.offset or 0
    remaining = plan.limit
    for i, row in enumerate(rows):
        if i < offset:
            continue
        if remaining is not None:
            if remaining <= 0:
                return
            remaining -= 1
        counters.tuples += 1
        yield row


def sort_rows(plan: SortPlan, rows: RowIterator,
              counters: Counters) -> RowIterator:
    scope, params = plan.child.scope, counters.params
    getters = [(compile_expression(e, scope, params), descending)
               for e, descending in plan.sort_keys]
    materialized = list(rows)
    counters.tuples += len(materialized)
    # Stable multi-key sort: apply keys right-to-left.
    for getter, descending in reversed(getters):
        materialized.sort(
            key=lambda row: sort_key((getter(row),)),
            reverse=descending,
        )
    return iter(materialized)


class _Accumulator:
    """State of one aggregate function for one group."""

    __slots__ = ("function", "distinct", "count", "total", "minimum",
                 "maximum", "seen")

    def __init__(self, function: str, distinct: bool) -> None:
        self.function = function
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            marker = (type(value).__name__, value)
            if marker in self.seen:
                return
            self.seen.add(marker)
        self.count += 1
        if self.function in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.function == "min":
            if self.minimum is None or value < self.minimum:
                self.minimum = value
        elif self.function == "max":
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def result(self) -> Any:
        if self.function == "count":
            return self.count
        if self.function == "sum":
            return self.total
        if self.function == "avg":
            return None if self.count == 0 else self.total / self.count
        if self.function == "min":
            return self.minimum
        if self.function == "max":
            return self.maximum
        raise ExecutionError(f"unknown aggregate {self.function!r}")


def aggregate_rows(plan: AggregatePlan, rows: RowIterator,
                   counters: Counters) -> RowIterator:
    """Hash aggregation; output = group expressions then aggregates."""
    child_scope, params = plan.child.scope, counters.params
    group_getters = [compile_expression(e, child_scope, params)
                     for e in plan.group_expressions]
    agg_specs: list[tuple[str, bool, Any]] = []
    for call in plan.aggregates:
        if call.name == "count" and (
                not call.args or isinstance(call.args[0], ast.Star)):
            agg_specs.append(("count", call.distinct, None))
        else:
            if len(call.args) != 1:
                raise ExecutionError(
                    f"aggregate {call.name}() takes exactly one argument")
            agg_specs.append((
                call.name, call.distinct,
                compile_expression(call.args[0], child_scope, params),
            ))

    groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
    saw_rows = False
    for row in rows:
        counters.tuples += 1
        saw_rows = True
        values = tuple(getter(row) for getter in group_getters)
        key = sort_key(values)
        entry = groups.get(key)
        if entry is None:
            entry = (values, [_Accumulator(name, distinct)
                              for name, distinct, _ in agg_specs])
            groups[key] = entry
        for (name, _distinct, getter), accumulator in zip(agg_specs,
                                                          entry[1]):
            if getter is None:  # COUNT(*)
                accumulator.count += 1
            else:
                accumulator.add(getter(row))

    if not groups and not plan.group_expressions:
        # Global aggregate over an empty input still yields one row.
        empty = [_Accumulator(name, distinct)
                 for name, distinct, _ in agg_specs]
        yield tuple(acc.result() for acc in empty)
        return
    del saw_rows
    for values, accumulators in groups.values():
        yield values + tuple(acc.result() for acc in accumulators)
