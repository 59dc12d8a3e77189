"""Row-shaping operators: filter, project, aggregate, sort, distinct, limit.

Each ``*_step`` compiles its plan node once (positions, getters) and
returns the step that binds an execution's literal vector to them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError
from repro.execution.evaluator import (Getter, Params, ScopeIndex,
                                      column_position, prepare_expression,
                                      sort_key)
from repro.execution.scan import Counters, Step
from repro.optimizer.plans import (AggregatePlan, DistinctPlan, FilterPlan,
                                   LimitPlan, ProjectPlan, SortPlan)
from repro.sql import ast_nodes as ast

RowIterator = Iterator[tuple]


def filter_step(plan: FilterPlan, catalog: Any, params: Params,
                child: Step) -> Step:
    bind = prepare_expression(plan.condition, ScopeIndex(plan.child.scope),
                              predicate=True)
    return lambda counters: _filter(bind(counters.params), child(counters),
                                    counters)


def _filter(predicate: Getter, rows: RowIterator,
            counters: Counters) -> RowIterator:
    for row in rows:
        counters.tuples += 1
        if predicate(row):
            yield row


def project_step(plan: ProjectPlan, catalog: Any, params: Params,
                 child: Step) -> Step:
    scope = plan.child.scope
    index = ScopeIndex(scope)
    positions = [column_position(e, index) for e in plan.expressions]
    if positions == list(range(len(scope))):
        # Every child column in order: rows pass through.
        return lambda counters: _project(None, child(counters), counters)
    if None not in positions and len(positions) > 1:
        project = itemgetter(*positions)
        return lambda counters: _project(project, child(counters), counters)
    binders = [prepare_expression(e, index) for e in plan.expressions]

    def run(counters: Counters) -> RowIterator:
        getters = [bind(counters.params) for bind in binders]
        return _project(lambda row: tuple([getter(row) for getter in getters]),
                        child(counters), counters)

    return run


def _project(project: Callable[[tuple], tuple] | None, rows: RowIterator,
             counters: Counters) -> RowIterator:
    for row in rows:
        counters.tuples += 1
        yield row if project is None else project(row)


def distinct_step(plan: DistinctPlan, catalog: Any, params: Params,
                  child: Step) -> Step:
    return lambda counters: _distinct(child(counters), counters)


def _distinct(rows: RowIterator, counters: Counters) -> RowIterator:
    seen: set = set()
    for row in rows:
        counters.tuples += 1
        key = sort_key(row)
        if key not in seen:
            seen.add(key)
            yield row


def limit_step(plan: LimitPlan, catalog: Any, params: Params,
               child: Step) -> Step:
    return lambda counters: _limit(plan.limit, plan.offset or 0,
                                   child(counters), counters)


def _limit(remaining: int | None, offset: int, rows: RowIterator,
           counters: Counters) -> RowIterator:
    for i, row in enumerate(rows):
        if i < offset:
            continue
        if remaining is not None:
            if remaining <= 0:
                return
            remaining -= 1
        counters.tuples += 1
        yield row


def sort_step(plan: SortPlan, catalog: Any, params: Params,
              child: Step) -> Step:
    index = ScopeIndex(plan.child.scope)
    binders = [(prepare_expression(e, index), descending)
               for e, descending in plan.sort_keys]

    def run(counters: Counters) -> RowIterator:
        # Eager: the input is consumed as the step is built.
        materialized = list(child(counters))
        counters.tuples += len(materialized)
        # Stable multi-key sort: apply keys right-to-left.
        for bind, descending in reversed(binders):
            getter = bind(counters.params)
            materialized.sort(key=lambda row: sort_key((getter(row),)),
                              reverse=descending)
        return iter(materialized)

    return run


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


def aggregate_step(plan: AggregatePlan, catalog: Any, params: Params,
                   child: Step) -> Step:
    """Hash aggregation; output = group expressions then aggregates."""
    index = ScopeIndex(plan.child.scope)
    group_binders = [prepare_expression(e, index)
                     for e in plan.group_expressions]
    agg_binders: list[tuple[str, bool, Any]] = []
    for call in plan.aggregates:
        if call.name == "count" and (
                not call.args or isinstance(call.args[0], ast.Star)):
            agg_binders.append(("count", call.distinct, None))
        else:
            if len(call.args) != 1:
                raise ExecutionError(
                    f"aggregate {call.name}() takes exactly one argument")
            agg_binders.append((call.name, call.distinct,
                                prepare_expression(call.args[0], index)))
    grouped = bool(plan.group_expressions)

    def run(counters: Counters) -> RowIterator:
        params = counters.params
        return _aggregate(
            [bind(params) for bind in group_binders],
            [(name, distinct, None if bind is None else bind(params))
             for name, distinct, bind in agg_binders],
            grouped, child(counters), counters)

    return run


def _aggregate(group_getters: list[Getter],
               agg_specs: list[tuple[str, bool, Getter | None]],
               grouped: bool, rows: RowIterator,
               counters: Counters) -> RowIterator:
    groups: dict[tuple, tuple[tuple, list[_Accumulator]]] = {}
    for row in rows:
        counters.tuples += 1
        values = tuple([getter(row) for getter in group_getters])
        key = sort_key(values)
        entry = groups.get(key)
        if entry is None:
            entry = (values, [_Accumulator(name, distinct)
                              for name, distinct, _ in agg_specs])
            groups[key] = entry
        for (_name, _distinct, getter), accumulator in zip(agg_specs,
                                                           entry[1]):
            if getter is None:  # COUNT(*)
                accumulator.count += 1
            else:
                accumulator.add(getter(row))

    if not groups and not grouped:
        # Global aggregate over an empty input still yields one row.
        empty = [_Accumulator(name, distinct)
                 for name, distinct, _ in agg_specs]
        yield tuple(acc.result() for acc in empty)
        return
    for values, accumulators in groups.values():
        yield values + tuple(acc.result() for acc in accumulators)
