"""Scan operators: sequential, B-Tree keyed and secondary-index scans."""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Protocol, Sequence

from repro.errors import ExecutionError
from repro.execution.evaluator import compile_predicate
from repro.optimizer.plans import (
    BTreeScanPlan,
    HashScanPlan,
    IndexScanPlan,
    KeyCondition,
    SeqScanPlan,
)
from repro.optimizer.predicates import split_conjuncts
from repro.sql import ast_nodes as ast
from repro.storage.btree import BTreeStorage
from repro.storage.table_storage import TableStorage


class StorageCatalog(Protocol):
    """What the executor needs from the engine's database object."""

    def storage_for(self, table_name: str) -> TableStorage: ...

    def index_storage_for(self, index_name: str) -> BTreeStorage: ...

    def virtual_rows(self, table_name: str,
                     lower_bounds: Mapping[str, int] | None = None,
                     ) -> list[tuple]: ...

    def is_virtual_table(self, table_name: str) -> bool: ...

    def virtual_floor_column(self, table_name: str) -> str | None: ...


class Counters:
    """What the operators of one execution share: the work counter
    (tuples processed) and the literal vector every operator compiles
    its expressions and key bounds against (None: the values the plan
    was built with)."""

    __slots__ = ("tuples", "params")

    def __init__(self, params: Sequence[Any] | None = None) -> None:
        self.tuples = 0
        self.params = params


def key_bounds(conditions: tuple[KeyCondition, ...],
               params: Sequence[Any] | None = None) -> tuple[
        tuple | None, tuple | None, bool, bool]:
    """Convert matched key conditions into scan-range bounds.

    Conditions arrive in key order: equalities on leading columns, then
    up to two range bounds on the following column.
    """
    equals: list[Any] = []
    lo_value = hi_value = None
    lo_inclusive = hi_inclusive = True
    for condition in conditions:
        if condition.op == "=":
            equals.append(condition.bound(params))
        elif condition.op in (">", ">="):
            lo_value = condition.bound(params)
            lo_inclusive = condition.op == ">="
        elif condition.op in ("<", "<="):
            hi_value = condition.bound(params)
            hi_inclusive = condition.op == "<="
        else:
            raise ExecutionError(f"unsupported key condition {condition!r}")
    prefix = tuple(equals)
    if lo_value is None and hi_value is None:
        if not prefix:
            return None, None, True, True
        return prefix, prefix, True, True
    lo = prefix + (lo_value,) if lo_value is not None else (prefix or None)
    hi = prefix + (hi_value,) if hi_value is not None else (prefix or None)
    return lo, hi, lo_inclusive, hi_inclusive


def lower_bounds(filter_expr: ast.Expression | None,
                 params: Sequence[Any] | None = None) -> dict[str, int]:
    """Column -> the largest integer literal ``N`` among the filter's
    top-level ``column > N`` conjuncts, as bound by ``params``: every
    row the filter accepts exceeds it (a scan filter references one
    table only, so the column name is enough)."""
    bounds: dict[str, int] = {}
    for conjunct in split_conjuncts(filter_expr):
        if (isinstance(conjunct, ast.BinaryOp) and conjunct.op == ">"
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.Literal)):
            name, bound = conjunct.left.name, conjunct.right.bound(params)
            if type(bound) is int:
                bounds[name] = max(bound, bounds.get(name, bound))
    return bounds


def seq_scan(plan: SeqScanPlan, catalog: StorageCatalog,
             counters: Counters) -> Iterator[tuple]:
    params = counters.params
    filter_expr = plan.filter_expr
    if catalog.is_virtual_table(plan.table_name):
        bounds = lower_bounds(filter_expr, params)
        rows = catalog.virtual_rows(plan.table_name, bounds)
        if (bounds and len(split_conjuncts(filter_expr)) == 1 and
                catalog.virtual_floor_column(plan.table_name) in bounds):
            # The filter is the pushed floor and nothing else: the
            # provider returned exactly the rows it accepts.
            counters.tuples += len(rows)
            yield from rows
            return
        # Otherwise the bounds only spared the provider building rows
        # the predicate rejects; the result is the same.
        predicate = compile_predicate(filter_expr, plan.scope, params)
        for row in rows:
            counters.tuples += 1
            if predicate(row):
                yield row
        return
    predicate = compile_predicate(filter_expr, plan.scope, params)
    storage = catalog.storage_for(plan.table_name)
    for _rowid, row in storage.scan():
        counters.tuples += 1
        if predicate(row):
            yield row


def btree_scan(plan: BTreeScanPlan, catalog: StorageCatalog,
               counters: Counters) -> Iterator[tuple]:
    storage = catalog.storage_for(plan.table_name)
    tree = storage.btree
    predicate = compile_predicate(plan.filter_expr, plan.scope,
                                  counters.params)
    lo, hi, lo_inc, hi_inc = key_bounds(plan.key_conditions,
                                        counters.params)
    for _rowid, row in tree.scan_range(lo, hi, lo_inc, hi_inc):
        counters.tuples += 1
        if predicate(row):
            yield row


def hash_scan(plan: HashScanPlan, catalog: StorageCatalog,
              counters: Counters) -> Iterator[tuple]:
    """Full-key equality probe into a HASH-structured table."""
    storage = catalog.storage_for(plan.table_name)
    params = counters.params
    predicate = compile_predicate(plan.filter_expr, plan.scope, params)
    key = tuple(condition.bound(params)
                for condition in plan.key_conditions)
    for _rowid, row in storage.hash.seek(key):
        counters.tuples += 1
        if predicate(row):
            yield row


def index_scan(plan: IndexScanPlan, catalog: StorageCatalog,
               counters: Counters) -> Iterator[tuple]:
    if plan.virtual:
        raise ExecutionError(
            f"plan uses virtual index {plan.index_name!r}; virtual indexes "
            f"can be costed but not executed"
        )
    index = catalog.index_storage_for(plan.index_name)
    storage = catalog.storage_for(plan.table_name)
    predicate = compile_predicate(plan.filter_expr, plan.scope,
                                  counters.params)
    lo, hi, lo_inc, hi_inc = key_bounds(plan.key_conditions,
                                        counters.params)
    for _entry_rowid, entry in index.scan_range(lo, hi, lo_inc, hi_inc):
        counters.tuples += 1
        base_row = storage.fetch(entry[-1])
        if predicate(base_row):
            yield base_row
