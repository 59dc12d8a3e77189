"""Join operators: nested loop, hash and index-lookup joins.

Each ``*_step`` compiles its plan node once (key getters, the lookup
join's residual, the nested loop's filter kernel) and returns the step
that binds an execution's literal vector to them.  The nested loop's inner side and
a hash join's build side are taken whole when the join starts; the
outer side is joined a batch at a time (see :data:`~.scan.Step`).
"""

from __future__ import annotations

from itertools import chain
from typing import Any

from repro.errors import ExecutionError
from repro.execution.evaluator import (Binder, Getter, Params, ScopeIndex,
                                      prepare_expression, prepare_filter)
from repro.execution.scan import (Batches, Counters, Step, StorageCatalog,
                                  column_types, positions, singles)
from repro.optimizer.plans import (HashJoinPlan, IndexLookupJoinPlan,
                                   NestedLoopJoinPlan)
from repro.sql import ast_nodes as ast


def _prepare_key(keys: tuple[ast.Expression, ...],
                 index: ScopeIndex) -> Binder[Getter]:
    """``bind(params)``: a row's join key, a one-column key's bare value
    or else the values' tuple; None if NULL, which never equi-joins."""
    binders = [prepare_expression(key, index) for key in keys]

    def bind(params: Params) -> Getter:
        getters = [binder(params) for binder in binders]
        if len(getters) == 1:
            return getters[0]

        def key_of(row: tuple) -> tuple | None:
            key = tuple([getter(row) for getter in getters])
            return None if None in key else key

        return key_of

    return bind


def nested_loop_step(plan: NestedLoopJoinPlan, catalog: StorageCatalog,
                     params: Params, single: bool, left: Step,
                     right: Step) -> Step:
    """A nested loop over the join condition."""
    bind = prepare_filter(plan.condition, plan.right.scope, params,
                          column_types(plan, catalog), plan.left.scope)

    def nested_loop(counters: Counters) -> Batches:
        """Filter all of the inner side per outer row, its values bound
        as the filter's arguments; every inner row tested counts."""
        keep = bind(counters.params)
        inner = [*chain.from_iterable(right(counters))]
        width = len(inner)
        for batch in left(counters):
            out: list[tuple] = []
            for outer in batch:
                matched = keep(inner, outer)
                joined = [outer + row for row in matched]
                if single:
                    yield from singles(joined, positions(inner, matched),
                                       width, counters)
                else:
                    out += joined
            if not single:
                counters.tuples += len(batch) * width
                if out:
                    yield out

    return nested_loop


def hash_join_step(plan: HashJoinPlan, catalog: StorageCatalog,
                   params: Params, single: bool, left: Step,
                   right: Step) -> Step:
    """An equi-join: build on the right input, probe with the left input
    a batch at a time; every probe row counts, and so does every row it
    outputs."""
    left_key = _prepare_key(plan.left_keys, ScopeIndex(plan.left.scope))
    right_key = _prepare_key(plan.right_keys, ScopeIndex(plan.right.scope))

    def hash_join(counters: Counters) -> Batches:
        params = counters.params
        key_of = left_key(params)
        build = [*chain.from_iterable(right(counters))]
        counters.tuples += len(build)
        table: dict[Any, list[tuple]] = {}
        for row, key in zip(build, map(right_key(params), build)):
            if key is not None:  # NULL never equi-joins
                table.setdefault(key, []).append(row)
        get = table.get
        for batch in left(counters):
            out = [outer + row for outer in batch
                   for row in get(key_of(outer), ())]
            if single:  # one probe row: it counts before its first output
                yield from singles(out, range(2, len(out) + 2),
                                   1 + len(out), counters)
                continue
            counters.tuples += len(batch) + len(out)
            if out:
                yield out

    return hash_join


def index_lookup_step(plan: IndexLookupJoinPlan, catalog: StorageCatalog,
                      params: Params, single: bool, left: Step) -> Step:
    """Per outer row, probe the inner table's B-Tree or secondary index
    a page at a time; every inner row reached counts."""
    outer_key = _prepare_key(plan.outer_keys, ScopeIndex(plan.left.scope))
    bind_residual = None if plan.residual is None else prepare_expression(
        plan.residual, ScopeIndex(plan.scope), predicate=True)
    bare = len(plan.outer_keys) == 1

    def index_lookup(counters: Counters) -> Batches:
        if plan.virtual:
            raise ExecutionError(
                f"plan probes virtual index {plan.via_index!r}; virtual "
                f"indexes can be costed but not executed")
        key_of = outer_key(counters.params)
        residual = bind_residual and bind_residual(counters.params)
        storage = catalog.storage_for(plan.table_name)
        index = None if plan.via_index is None \
            else catalog.index_storage_for(plan.via_index)
        for batch in left(counters):
            out: list[tuple] = []
            for outer in batch:
                probe = key_of(outer)
                if probe is None:
                    continue
                probe = (probe,) if bare else probe
                # A secondary index: a page per entry, as an index scan.
                for rows in (page for _, page in storage.btree.pages(
                        probe, probe)) if index is None else (
                        (storage.fetch(entry[-1]),)
                        for _, entry in index.scan_range(probe, probe)):
                    units = [outer + row for row in rows]
                    kept = units if residual is None \
                        else list(filter(residual, units))
                    if single:
                        yield from singles(kept, positions(units, kept),
                                           len(units), counters)
                    else:
                        counters.tuples += len(units)
                        out += kept
            if out:
                yield out

    return index_lookup
