"""Row-shaping operators: filter, project, aggregate, sort, distinct, limit.

Each ``*_step`` compiles its plan node once (positions, getters, each
aggregate's fold) and returns the step that binds an execution's
literal vector to them and takes its input a batch at a time (see
:data:`~repro.execution.scan.Step`); sort and aggregate consume all of
it before they output their one batch.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from itertools import chain
from operator import add, attrgetter, itemgetter
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.execution.evaluator import (Binder, Getter, Params, ScopeIndex,
                                      column_position, prepare_expression,
                                      sort_key)
from repro.execution.scan import Batches, Counters, Step
from repro.optimizer.plans import (AggregatePlan, DistinctPlan, FilterPlan,
                                   LimitPlan, ProjectPlan, SortPlan)
from repro.sql import ast_nodes as ast


def filter_step(plan: FilterPlan, catalog: Any, params: Params,
                single: bool, child: Step) -> Step:
    bind = prepare_expression(plan.condition, ScopeIndex(plan.child.scope),
                              predicate=True)

    def run(counters: Counters) -> Batches:
        predicate = bind(counters.params)
        for batch in child(counters):
            counters.tuples += len(batch)
            kept = list(filter(predicate, batch))
            if kept:
                yield kept

    return run


def project_step(plan: ProjectPlan, catalog: Any, params: Params,
                 single: bool, child: Step) -> Step:
    scope = plan.child.scope
    index = ScopeIndex(scope)
    positions = [column_position(e, index) for e in plan.expressions]
    if positions == list(range(len(scope))):
        # Every child column in order: batches pass through.
        return lambda counters: _project(None, child(counters), counters)
    if None not in positions and len(positions) > 1:
        get = itemgetter(*positions)
        return lambda counters: _project(lambda batch: list(map(get, batch)),
                                         child(counters), counters)
    binders = [prepare_expression(e, index) for e in plan.expressions]

    def run(counters: Counters) -> Batches:
        getters = [bind(counters.params) for bind in binders]
        return _project(lambda batch: [
            tuple([getter(row) for getter in getters]) for row in batch],
            child(counters), counters)

    return run


def _project(convert: Callable[[Sequence[tuple]], list[tuple]] | None,
             batches: Batches, counters: Counters) -> Batches:
    for batch in batches:
        counters.tuples += len(batch)
        yield batch if convert is None else convert(batch)


def distinct_step(plan: DistinctPlan, catalog: Any, params: Params,
                  single: bool, child: Step) -> Step:
    """A row is its own key: NULL equals NULL in a tuple, and values
    that compare equal (1 and 1.0) are one; the first one seen stays."""

    def run(counters: Counters) -> Batches:
        seen: set[tuple] = set()
        for batch in child(counters):
            counters.tuples += len(batch)
            fresh = [row for row in dict.fromkeys(batch) if row not in seen]
            seen.update(fresh)
            if fresh:
                yield fresh

    return run


def limit_step(plan: LimitPlan, catalog: Any, params: Params,
               single: bool, child: Step) -> Step:
    """Its input is compiled ``single``: the steps below count the work
    up to the row after the last one it outputs, which finds it done."""

    def run(counters: Counters) -> Batches:
        skip, remaining = plan.offset or 0, plan.limit
        for batch in child(counters):
            taken = batch[skip:]
            skip -= len(batch) - len(taken)
            if not taken:
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                taken = taken[:remaining]
                remaining -= len(taken)
            counters.tuples += len(taken)
            yield taken

    return run


def sort_step(plan: SortPlan, catalog: Any, params: Params,
              single: bool, child: Step) -> Step:
    index = ScopeIndex(plan.child.scope)
    binders = [(prepare_expression(e, index), descending)
               for e, descending in plan.sort_keys]

    def run(counters: Counters) -> Batches:
        rows = [*chain.from_iterable(child(counters))]
        counters.tuples += len(rows)
        # Stable multi-key sort: apply keys right-to-left.
        for bind, descending in reversed(binders):
            getter = bind(counters.params)
            rows.sort(key=lambda row: sort_key((getter(row),)),
                      reverse=descending)
        if rows:
            yield rows

    return run


class _Accumulator:
    """One aggregate's state in one group: its non-NULL values' count
    (distinct ones only, with ``seen``) and sum, minimum or maximum."""

    __slots__ = ("count", "value", "seen")

    def __init__(self, distinct: bool) -> None:
        self.count, self.value = 0, None
        self.seen: set | None = set() if distinct else None


Fold = Callable[[list], Any]
# Function name -> (fold of a group's values, led by its running value;
# result).  Folds keep row order: ``reduce(add)`` adds left to right,
# ``min`` / ``max`` keep the first of equal values, as one row at a time.
_FUNCTIONS: dict[str, tuple[Fold | None, Callable[[_Accumulator], Any]]] = {
    "count": (None, attrgetter("count")),
    "sum": (partial(reduce, add), attrgetter("value")),
    "avg": (partial(reduce, add), lambda accumulator: None
            if accumulator.count == 0 else accumulator.value / accumulator.count),
    "min": (min, attrgetter("value")),
    "max": (max, attrgetter("value")),
}


def aggregate_step(plan: AggregatePlan, catalog: Any, params: Params,
                   single: bool, child: Step) -> Step:
    """Hash aggregation; output = group expressions then aggregates.  A
    batch is split by group, keyed by the values (NULL groups with NULL,
    1 with 1.0), and each group's rows fold an aggregate at a time."""
    index = ScopeIndex(plan.child.scope)
    group_binders = [prepare_expression(e, index)
                     for e in plan.group_expressions]
    # Per aggregate: its argument (None: a row), DISTINCT, fold, result.
    specs: list[tuple[Binder[Getter] | None, bool, Fold | None, Any]] = []
    for call in plan.aggregates:
        if call.name not in _FUNCTIONS:
            raise ExecutionError(f"unknown aggregate {call.name!r}")
        star = call.name == "count" and (
            not call.args or isinstance(call.args[0], ast.Star))
        if not star and len(call.args) != 1:
            raise ExecutionError(
                f"aggregate {call.name}() takes exactly one argument")
        specs.append((None if star else prepare_expression(
            call.args[0], index), call.distinct, *_FUNCTIONS[call.name]))

    def run(counters: Counters) -> Batches:
        getters = [bind(counters.params) for bind in group_binders]
        bare = len(getters) == 1  # the key is the one value
        key_of = getters[0] if bare else lambda row: tuple(
            [getter(row) for getter in getters])
        folds = [(bind and bind(counters.params), fold)
                 for bind, _distinct, fold, _result in specs]
        groups: dict[Any, list[_Accumulator]] = {}
        for batch in child(counters):
            counters.tuples += len(batch)
            parts: dict[Any, list[tuple]] = defaultdict(list)
            if getters:
                for key, row in zip(map(key_of, batch), batch):
                    parts[key].append(row)
            else:
                parts[()] = list(batch)
            for key, rows in parts.items():
                accumulators = groups.get(key)
                if accumulators is None:
                    accumulators = groups[key] = [
                        _Accumulator(spec[1]) for spec in specs]
                for (getter, fold), accumulator in zip(folds, accumulators):
                    if getter is None:  # COUNT(*)
                        accumulator.count += len(rows)
                        continue
                    values = [value for value in map(getter, rows)
                              if value is not None]
                    if accumulator.seen is not None:
                        # Told apart by type too: 1 and 1.0 are two.
                        markers = dict.fromkeys(
                            [(type(value).__name__, value) for value in values])
                        values = [marker[1] for marker in markers
                                  if marker not in accumulator.seen]
                        accumulator.seen.update(markers)
                    if values:
                        accumulator.count += len(values)
                        if fold is not None:
                            accumulator.value = fold(
                                values if accumulator.value is None
                                else [accumulator.value, *values])
        if not groups and not getters:
            # Global aggregate over an empty input still yields one row.
            groups[()] = [_Accumulator(spec[1]) for spec in specs]
        out = [((key,) if bare else key) + tuple([
            spec[3](accumulator) for spec, accumulator in zip(specs, accumulators)])
            for key, accumulators in groups.items()]
        if out:
            yield out

    return run
