"""Scan operators: sequential, B-Tree keyed and secondary-index scans."""

from __future__ import annotations

from itertools import repeat
from typing import (Any, Callable, Collection, Iterable, Iterator, Mapping,
                    Protocol, Sequence)

from repro.catalog.schema import DataType
from repro.errors import ExecutionError
from repro.execution.evaluator import (BatchFilter, Binder, ColumnTypes,
                                      Params, prepare_filter)
from repro.optimizer.plans import (
    BTreeScanPlan,
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
    (tuples processed), the literal vector every operator binds its
    compiled expressions and key bounds to (None: the values the plan
    was built with) and, for a plan that writes, the undo log's
    ``record`` (see :meth:`Executor.execute`)."""

    __slots__ = ("tuples", "params", "undo")

    def __init__(self, params: Sequence[Any] | None = None,
                 undo: Callable[[Callable[[], None]], None] | None = None,
                 ) -> None:
        self.tuples, self.params, self.undo = 0, params, undo


Batches = Iterator[Sequence[tuple]]
Step = Callable[[Counters], Batches]
"""A compiled plan node: ``step(counters)`` is one execution's iterator
of non-empty row batches, a scan's one per page and every other
operator's one per input batch; compiled ``single`` (below a LIMIT, see
:func:`~repro.execution.executor.compile_plan`), one row per batch,
counted as a row-at-a-time operator counts it (:func:`singles`)."""


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
        bound = prefix or None  # one object: an equality probe
        return bound, bound, True, True
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
# SELECT (:func:`scan_step`) and UPDATE / DELETE (:func:`prepare_entries`)
# both read through it.
ACCESS_PATHS = {
    SeqScanPlan: _seq_pages,
    BTreeScanPlan: _btree_pages,
    IndexScanPlan: _index_pages,
}
ScanPlan = SeqScanPlan | BTreeScanPlan | IndexScanPlan


def column_types(plan: PlanNode, catalog: StorageCatalog) -> ColumnTypes:
    """Binding -> declared column types of every table ``plan`` reads."""
    return {node.binding: catalog.column_types(node.table_name)
            for node in plan.walk() if isinstance(node, _READERS)}


_READERS = (*ACCESS_PATHS, IndexLookupJoinPlan)


def positions(units: Iterable[tuple], kept: Iterable[tuple]) -> list[int]:
    """The 1-based position in ``units`` of each row of ``kept``, the
    rows of ``units`` a filter kept, in order (the same objects)."""
    walk = enumerate(units, 1)
    return [next(p for p, unit in walk if unit is row) for row in kept]


def singles(rows: Sequence[tuple], marks: Iterable[int], total: int,
            counters: Counters) -> Batches:
    """Each of ``rows`` as a batch of its own, the count raised first to
    ``marks[i]`` in all (the work a row-at-a-time operator had done when
    it handed the row over) and to ``total`` after the last row."""
    counted = 0
    for row, mark in zip(rows, marks):
        counters.tuples += mark - counted
        counted = mark
        yield (row,)
    counters.tuples += total - counted


def scan_step(plan: ScanPlan, catalog: StorageCatalog, params: Params,
              single: bool) -> Step:
    """A compiled access path: its filter prepared once (generated code,
    see :func:`~.evaluator.prepare_filter`) and bound per execution.  The
    step yields the rows of each page that pass, counting the page whole;
    ``single``, one row at a time, counting the page up to it."""
    virtual = catalog.is_virtual_table(plan.table_name)
    expr = plan.filter_expr
    # A filter that is the pushed floor and nothing else tests nothing
    # (None): the provider returns exactly the rows it accepts, and the
    # floor is an integer in every literal vector of the prepared
    # statement's types.
    bind: Binder[BatchFilter] | None = None if virtual and len(
        split_conjuncts(expr)) == 1 and catalog.virtual_floor_column(
        plan.table_name) in lower_bounds(expr, params) else prepare_filter(
        expr, plan.scope, params,
        {plan.binding: catalog.column_types(plan.table_name)})

    def scan(counters: Counters) -> Batches:
        literals = counters.params
        if virtual:
            # A floor that is not the whole filter only spares the
            # provider building rows the filter rejects.
            pages: Iterable[Page] = (((), catalog.virtual_rows(
                plan.table_name, lower_bounds(expr, literals))),)
        else:
            pages = ACCESS_PATHS[type(plan)](plan, catalog, literals)
        keep = None if bind is None else bind(literals)
        for _rowids, rows in pages:
            kept = list(rows) if keep is None else keep(rows, ())
            if single:  # unfiltered, a page counts whole before its first row
                yield from singles(kept, repeat(len(rows)) if keep is None
                                   else positions(rows, kept), len(rows), counters)
                continue
            counters.tuples += len(rows)
            if kept:
                yield kept

    return scan


# staticcheck: hotpath
def prepare_entries(plan: ScanPlan, catalog: StorageCatalog,
                    params: Params) -> Binder[list[tuple[int, tuple]]]:
    """UPDATE / DELETE's read: ``read(params)`` is the ``(rowid, row)``
    entries of a stored table that pass the filter of the access path
    ``plan``, all read before returning."""
    bind = prepare_filter(plan.filter_expr, plan.scope, params, {
        plan.binding: catalog.column_types(plan.table_name)}, entries=True)
    pages_of = ACCESS_PATHS[type(plan)]

    def read(params: Params) -> list[tuple[int, tuple]]:
        keep = bind(params)
        return [entry for rowids, rows in pages_of(plan, catalog, params)
                for entry in keep(list(zip(rowids, rows)), ())]

    return read
