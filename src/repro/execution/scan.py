"""Scan operators: sequential, B-Tree keyed and secondary-index scans."""

from __future__ import annotations

from typing import (Any, Callable, Collection, Iterable, Iterator, Mapping,
                    Protocol, Sequence)

from repro.catalog.schema import DataType
from repro.errors import ExecutionError
from repro.execution.evaluator import ColumnTypes, compile_filter
from repro.optimizer.plans import (
    BTreeScanPlan,
    HashScanPlan,
    IndexLookupJoinPlan,
    IndexScanPlan,
    KeyCondition,
    PlanNode,
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

    def column_types(self, table_name: str) -> Mapping[str, DataType]: ...

    # What the writing operators (repro.execution.modify) apply; each
    # maintains the table's indexes.

    def insert_row(self, table_name: str, row: tuple) -> int: ...

    def update_row(self, table_name: str, rowid: int, row: tuple,
                   old_row: tuple | None = None) -> tuple: ...

    def delete_row(self, table_name: str, rowid: int) -> tuple: ...

    def undo_insert(self, table_name: str, rowid: int) -> None: ...

    def undo_delete(self, table_name: str, rowid: int,
                    row: tuple) -> None: ...


Page = tuple[Collection[int], Collection[tuple]]
"""One page's rowids and rows, in step."""


class Counters:
    """What the operators of one execution share: the work counter
    (tuples processed), the literal vector every operator compiles
    its expressions and key bounds against (None: the values the plan
    was built with) and, for a plan that writes, the undo log's
    ``record`` (see :meth:`Executor.execute`)."""

    __slots__ = ("tuples", "params", "undo")

    def __init__(self, params: Sequence[Any] | None = None,
                 undo: Callable[[Callable[[], None]], None] | None = None,
                 ) -> None:
        self.tuples = 0
        self.params = params
        self.undo = undo


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


def _seq_pages(plan: SeqScanPlan, catalog: StorageCatalog,
               params: Sequence[Any] | None) -> Iterator[Page]:
    return catalog.storage_for(plan.table_name).pages()


def _btree_pages(plan: BTreeScanPlan, catalog: StorageCatalog,
                 params: Sequence[Any] | None) -> Iterator[Page]:
    return catalog.storage_for(plan.table_name).btree.pages(
        *key_bounds(plan.key_conditions, params))


def _hash_pages(plan: HashScanPlan, catalog: StorageCatalog,
                params: Sequence[Any] | None) -> Iterator[Page]:
    """Full-key equality probe into a HASH-structured table, one page
    per entry found (as :func:`_index_pages`)."""
    for rowid, row in catalog.storage_for(plan.table_name).hash.seek(tuple(
            [condition.bound(params) for condition in plan.key_conditions])):
        yield (rowid,), (row,)


def _index_pages(plan: IndexScanPlan, catalog: StorageCatalog,
                 params: Sequence[Any] | None) -> Iterator[Page]:
    """One page per index entry: a probe reads pages as it goes, so a
    LIMIT above stops reading where a row-at-a-time scan would."""
    if plan.virtual:
        raise ExecutionError(
            f"plan uses virtual index {plan.index_name!r}; virtual indexes "
            f"can be costed but not executed"
        )
    index = catalog.index_storage_for(plan.index_name)
    fetch = catalog.storage_for(plan.table_name).fetch
    for _entry_rowid, entry in index.scan_range(
            *key_bounds(plan.key_conditions, params)):
        yield (entry[-1],), (fetch(entry[-1]),)


# Access path -> the pages of ``(rowid, row)`` entries it reaches in a
# stored table, before the plan's filter.  The one body each path has:
# SELECT (:func:`scan_rows`) and UPDATE / DELETE (:func:`matching_entries`)
# both read through it.
ACCESS_PATHS = {
    SeqScanPlan: _seq_pages,
    BTreeScanPlan: _btree_pages,
    HashScanPlan: _hash_pages,
    IndexScanPlan: _index_pages,
}
ScanPlan = SeqScanPlan | BTreeScanPlan | HashScanPlan | IndexScanPlan


def column_types(plan: PlanNode, catalog: StorageCatalog) -> ColumnTypes:
    """Binding -> declared column types of every table ``plan`` reads."""
    return {node.binding: catalog.column_types(node.table_name)
            for node in plan.walk() if isinstance(node, _READERS)}


_READERS = (*ACCESS_PATHS, IndexLookupJoinPlan)


def emit(batch: Collection[tuple], matched: list[tuple],
         counters: Counters) -> Iterator[tuple]:
    """Yield ``matched``, the rows of ``batch`` a filter kept, and count
    ``batch`` as processed: all of it once the last match is taken or,
    when the consumer stops early (a LIMIT), up to the match it took
    last, as a filter testing one row at a time would have counted."""
    taken = 0
    try:
        for row in matched:
            yield row
            taken += 1
    except GeneratorExit:
        # Kept rows are the batch's own objects, in order.
        wanted = 0
        for position, row in enumerate(batch):
            if row is matched[wanted]:
                if wanted == taken:
                    counters.tuples += position + 1
                    break
                wanted += 1
        raise
    counters.tuples += len(batch)


def scan_rows(plan: ScanPlan, catalog: StorageCatalog,
              counters: Counters) -> Iterator[tuple]:
    """The rows of the access path ``plan`` that pass its filter,
    tested a page at a time."""
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
        # the filter rejects; the result is the same.
        pages: Iterable[Page] = (((), rows),)
    else:
        pages = ACCESS_PATHS[type(plan)](plan, catalog, params)
    keep = compile_filter(filter_expr, plan.scope, params, {
        plan.binding: catalog.column_types(plan.table_name)})
    for _rowids, rows in pages:
        matched = keep(rows, ())
        if matched:
            yield from emit(rows, matched, counters)
        else:
            counters.tuples += len(rows)


# staticcheck: hotpath
def matching_entries(plan: ScanPlan, catalog: StorageCatalog,
                     params: Sequence[Any] | None,
                     ) -> list[tuple[int, tuple]]:
    """The ``(rowid, row)`` entries of a stored table that pass the
    filter of the access path ``plan``, all read before returning."""
    keep = compile_filter(plan.filter_expr, plan.scope, params, {
        plan.binding: catalog.column_types(plan.table_name)}, entries=True)
    return [entry for rowids, rows in ACCESS_PATHS[type(plan)](
                plan, catalog, params)
            for entry in keep(list(zip(rowids, rows)), ())]
