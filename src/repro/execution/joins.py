"""Join operators: nested loop, hash and index-lookup joins."""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ExecutionError
from repro.execution.evaluator import compile_expression, compile_predicate
from repro.execution.scan import Counters, StorageCatalog
from repro.optimizer.plans import (
    HashJoinPlan,
    IndexLookupJoinPlan,
    LeftOuterJoinPlan,
    NestedLoopJoinPlan,
)

RowIterator = Iterator[tuple]
Builder = Callable[[], RowIterator]


def nested_loop_join(plan: NestedLoopJoinPlan, left_rows: RowIterator,
                     right_rows: RowIterator,
                     counters: Counters) -> RowIterator:
    """Materialize the inner side once, then loop per outer row."""
    params = counters.params
    predicate = compile_predicate(plan.condition, plan.scope, params)
    inner = list(right_rows)
    for left in left_rows:
        for right in inner:
            counters.tuples += 1
            combined = left + right
            if predicate(combined):
                yield combined


def hash_join(plan: HashJoinPlan, left_rows: RowIterator,
              right_rows: RowIterator, counters: Counters) -> RowIterator:
    """Build on the right input, probe with the left input."""
    params = counters.params
    left_keys = [compile_expression(k, plan.left.scope, params)
                 for k in plan.left_keys]
    right_keys = [compile_expression(k, plan.right.scope, params)
                  for k in plan.right_keys]
    residual = compile_predicate(plan.residual, plan.scope, params)
    table: dict[tuple, list[tuple]] = {}
    for row in right_rows:
        counters.tuples += 1
        key = tuple(getter(row) for getter in right_keys)
        if any(value is None for value in key):
            continue  # NULL never equi-joins
        table.setdefault(key, []).append(row)
    for left in left_rows:
        counters.tuples += 1
        key = tuple(getter(left) for getter in left_keys)
        if any(value is None for value in key):
            continue
        for right in table.get(key, ()):
            combined = left + right
            if residual(combined):
                counters.tuples += 1
                yield combined


def left_outer_join(plan: LeftOuterJoinPlan, left_rows: RowIterator,
                    right_rows: RowIterator,
                    counters: Counters) -> RowIterator:
    """Preserve every left row; NULL-pad the right side when unmatched."""
    params = counters.params
    right_width = len(plan.right.scope)
    nulls = (None,) * right_width
    materialized = list(right_rows)
    if plan.left_keys:
        left_getters = [compile_expression(k, plan.left.scope, params)
                        for k in plan.left_keys]
        right_getters = [compile_expression(k, plan.right.scope, params)
                         for k in plan.right_keys]
        residual = compile_predicate(plan.residual, plan.scope, params)
        table: dict[tuple, list[tuple]] = {}
        for row in materialized:
            counters.tuples += 1
            key = tuple(getter(row) for getter in right_getters)
            if any(value is None for value in key):
                continue
            table.setdefault(key, []).append(row)
        for left in left_rows:
            counters.tuples += 1
            key = tuple(getter(left) for getter in left_getters)
            matched = False
            if not any(value is None for value in key):
                for right in table.get(key, ()):
                    combined = left + right
                    if residual(combined):
                        matched = True
                        yield combined
            if not matched:
                yield left + nulls
        return
    predicate = compile_predicate(plan.condition, plan.scope, params)
    for left in left_rows:
        matched = False
        for right in materialized:
            counters.tuples += 1
            combined = left + right
            if predicate(combined):
                matched = True
                yield combined
        if not matched:
            yield left + nulls


def index_lookup_join(plan: IndexLookupJoinPlan, left_rows: RowIterator,
                      catalog: StorageCatalog,
                      counters: Counters) -> RowIterator:
    """Per outer row, probe the inner table's B-Tree or secondary index."""
    if plan.virtual:
        raise ExecutionError(
            f"plan probes virtual index {plan.via_index!r}; virtual indexes "
            f"can be costed but not executed"
        )
    params = counters.params
    outer_keys = [compile_expression(k, plan.left.scope, params)
                  for k in plan.outer_keys]
    residual = compile_predicate(plan.residual, plan.scope, params)
    storage = catalog.storage_for(plan.table_name)
    if plan.via_index is None:
        seek = storage.seek  # primary structure: B-Tree or hash
        fetch_base = None
    else:
        seek = catalog.index_storage_for(plan.via_index).seek
        fetch_base = storage.fetch
    for left in left_rows:
        probe = tuple(getter(left) for getter in outer_keys)
        if any(value is None for value in probe):
            continue
        for _rowid, entry in seek(probe):
            counters.tuples += 1
            inner_row = entry if fetch_base is None else fetch_base(entry[-1])
            combined = left + inner_row
            if residual(combined):
                yield combined
