"""Join operators: nested loop, hash and index-lookup joins.

Each ``*_step`` compiles its plan node once (key getters, residual,
the nested loop's filter kernel) and returns the step that binds an
execution's literal vector to them.  The materialised side — the
nested loop's inner rows, a hash join's build rows — is taken a page
at a time when it is a scan (:func:`~repro.execution.scan.inner_rows`).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import ExecutionError
from repro.execution.evaluator import (BatchFilter, Binder, Getter, Params,
                                      ScopeIndex, prepare_expression,
                                      prepare_filter)
from repro.execution.scan import (Counters, Step, StorageCatalog,
                                  column_types, emit, inner_rows)
from repro.optimizer.plans import (HashJoinPlan, IndexLookupJoinPlan,
                                   LeftOuterJoinPlan, NestedLoopJoinPlan)
from repro.sql import ast_nodes as ast

RowIterator = Iterator[tuple]
Rows = Callable[[], list[tuple]]
KeyOf = Callable[[tuple], tuple]


def _prepare_key(keys: tuple[ast.Expression, ...],
                 index: ScopeIndex) -> Binder[KeyOf]:
    """``bind(params)`` is the function from a row to its join key."""
    binders = [prepare_expression(key, index) for key in keys]

    def bind(params: Params) -> KeyOf:
        getters = [binder(params) for binder in binders]
        if len(getters) == 1:
            getter = getters[0]
            return lambda row: (getter(row),)
        return lambda row: tuple([getter(row) for getter in getters])

    return bind


def join_step(plan: NestedLoopJoinPlan | HashJoinPlan | LeftOuterJoinPlan,
              catalog: StorageCatalog, params: Params, left: Step,
              right: Step) -> Step:
    """A nested loop over the join condition, or — with equi-join keys —
    a hash join; a LEFT OUTER JOIN pads the left rows nothing matched."""
    nulls = (None,) * len(plan.right.scope) \
        if isinstance(plan, LeftOuterJoinPlan) else None
    if not getattr(plan, "left_keys", ()):
        bind = prepare_filter(plan.condition, plan.right.scope, params,
                              column_types(plan, catalog), plan.left.scope)
        return lambda counters: _nested_loop(
            bind(counters.params), left(counters),
            inner_rows(right, counters), nulls, counters)
    left_key = _prepare_key(plan.left_keys, ScopeIndex(plan.left.scope))
    right_key = _prepare_key(plan.right_keys, ScopeIndex(plan.right.scope))
    residual = prepare_expression(plan.residual, ScopeIndex(plan.scope),
                                  predicate=True)

    def run(counters: Counters) -> RowIterator:
        params = counters.params
        return _hash_join(left_key(params), right_key(params),
                          residual(params), left(counters),
                          inner_rows(right, counters), nulls, counters)

    return run


def _nested_loop(keep: BatchFilter, left_rows: RowIterator, take: Rows,
                 nulls: tuple | None, counters: Counters) -> RowIterator:
    """Materialize the inner side once, then filter all of it per outer
    row, the outer row's values bound as the filter's arguments."""
    inner = take()
    for left in left_rows:
        matched = keep(inner, left)
        if matched:
            for right in emit(inner, matched, counters):
                yield left + right
        else:
            counters.tuples += len(inner)
            if nulls is not None:
                yield left + nulls


def _hash_join(left_key: KeyOf, right_key: KeyOf, residual: Getter,
               left_rows: RowIterator, take: Rows, nulls: tuple | None,
               counters: Counters) -> RowIterator:
    """Build on the right input, probe with the left input; an inner
    join counts the rows it outputs too."""
    build = take()
    counters.tuples += len(build)
    table: dict[tuple, list[tuple]] = {}
    for row in build:
        key = right_key(row)
        if None not in key:  # NULL never equi-joins
            table.setdefault(key, []).append(row)
    inner = nulls is None
    for left in left_rows:
        counters.tuples += 1
        key = left_key(left)
        matched = False
        if None not in key:
            for right in table.get(key, ()):
                combined = left + right
                if residual(combined):
                    matched = True
                    counters.tuples += inner
                    yield combined
        if not (matched or inner):
            yield left + nulls  # type: ignore[operator]


def index_lookup_step(plan: IndexLookupJoinPlan, catalog: StorageCatalog,
                      params: Params, left: Step) -> Step:
    outer_key = _prepare_key(plan.outer_keys, ScopeIndex(plan.left.scope))
    residual = prepare_expression(plan.residual, ScopeIndex(plan.scope),
                                  predicate=True)
    return lambda counters: _index_lookup(
        plan, catalog, outer_key(counters.params),
        residual(counters.params), left(counters), counters)


def _index_lookup(plan: IndexLookupJoinPlan, catalog: StorageCatalog,
                  outer_key: KeyOf, residual: Getter,
                  left_rows: RowIterator,
                  counters: Counters) -> RowIterator:
    """Per outer row, probe the inner table's B-Tree or secondary index."""
    if plan.virtual:
        raise ExecutionError(
            f"plan probes virtual index {plan.via_index!r}; virtual indexes "
            f"can be costed but not executed"
        )
    storage = catalog.storage_for(plan.table_name)
    if plan.via_index is None:
        seek = storage.btree.seek
        fetch_base = None
    else:
        seek = catalog.index_storage_for(plan.via_index).seek
        fetch_base = storage.fetch
    for left in left_rows:
        probe = outer_key(left)
        if None in probe:
            continue
        for _rowid, entry in seek(probe):
            counters.tuples += 1
            inner_row = entry if fetch_base is None else fetch_base(entry[-1])
            combined = left + inner_row
            if residual(combined):
                yield combined
