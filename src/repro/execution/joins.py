"""Join operators: nested loop, hash and index-lookup joins.

Each ``*_step`` compiles its plan node once (key getters, the lookup
join's residual, the filter kernel a nested loop and a hash join's lone
first probe row share) and returns the step that binds an execution's literal
vector to them.  The inner or build side is taken whole when the join
starts; the outer side is joined a batch at a time (see :data:`~.scan.Step`),
a hash join's through one ``map`` over its table if its build keys are unique.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from repro.errors import ExecutionError
from repro.execution.evaluator import (Getter, Params, ScopeIndex,
                                      column_position, prepare_filter)
from repro.execution.scan import (Batches, Counters, Step, StorageCatalog,
                                  column_types, positions, singles)
from repro.optimizer.plans import (HashJoinPlan, IndexLookupJoinPlan,
                                   NestedLoopJoinPlan)
from repro.optimizer.predicates import conjoin
from repro.sql import ast_nodes as ast


def _join_key(keys: tuple[ast.Expression, ...], index: ScopeIndex) -> Getter:
    """A row's join key, read from the key columns (a plan's keys are
    columns of its input): a one-column key's bare value or else the
    values' tuple; None if NULL, which never equi-joins."""
    get = itemgetter(*[column_position(key, index) for key in keys])
    if len(keys) == 1:
        return get

    def key_of(row: tuple) -> tuple | None:
        key = get(row)
        return None if None in key else key

    return key_of


def nested_loop_step(plan: NestedLoopJoinPlan, catalog: StorageCatalog,
                     params: Params, single: bool, left: Step,
                     right: Step) -> Step:
    """A join with no equi-condition: each outer row filters the inner side."""
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
    """An equi-join built on the right input.  A first probe batch of one
    row finds its matches by filtering the build side, as a nested loop's
    outer row does: for one row that beats hashing the build side, which
    every later probe row does once.  The table is one ``dict`` pass over
    the build side; if that kept every row, the keys are unique and each
    maps to its row, else each to its rows, in build order.  Either way
    the join counts as the plan prices it: the build side once, then each
    probe row with its output.  NULL keys match nothing."""
    left_key = _join_key(plan.left_keys, ScopeIndex(plan.left.scope))
    right_key = _join_key(plan.right_keys, ScopeIndex(plan.right.scope))
    bind = prepare_filter(conjoin([*map(ast.BinaryOp, repeat("="),
                                        plan.left_keys, plan.right_keys)]),
                          plan.right.scope, params,
                          column_types(plan, catalog), plan.left.scope)

    def hash_join(counters: Counters) -> Batches:
        keep = bind(counters.params)
        build = [*chain.from_iterable(right(counters))]
        counters.tuples += len(build)
        seen, get = 0, None
        for batch in left(counters):
            seen += len(batch)
            if seen == 1:
                out = [outer + row for outer in batch
                       for row in keep(build, outer)]
            else:
                if get is None:
                    table: dict = dict(zip(map(right_key, build), build))
                    unique = len(table) == len(build)
                    if not unique:  # a key's rows, in build order
                        table = {}
                        for row, key in zip(build, map(right_key, build)):
                            table.setdefault(key, []).append(row)
                    table.pop(None, None)  # NULL never equi-joins
                    get = table.get
                if unique:  # None: no build row has the probe row's key
                    out = [outer + row for outer, row in zip(
                        batch, map(get, map(left_key, batch)))
                        if row is not None]
                else:
                    out = [outer + row for outer in batch
                           for row in get(left_key(outer), ())]
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
    key_of = _join_key(plan.outer_keys, ScopeIndex(plan.left.scope))
    bind_residual = None if plan.residual is None else prepare_filter(
        plan.residual, plan.scope, params, column_types(plan, catalog))
    bare = len(plan.outer_keys) == 1

    def index_lookup(counters: Counters) -> Batches:
        if plan.virtual:
            raise ExecutionError(
                f"plan probes virtual index {plan.via_index!r}; virtual "
                f"indexes can be costed but not executed")
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
                        else residual(units, ())
                    if single:
                        yield from singles(kept, positions(units, kept),
                                           len(units), counters)
                    else:
                        counters.tuples += len(units)
                        out += kept
            if out:
                yield out

    return index_lookup
