"""The operators that write: INSERT, UPDATE and DELETE.

Each applies its changes through the engine's single-row operations
(index maintenance, triggers and uniqueness checks live there), hands
the inverse of every applied change to the execution's undo log, and
outputs one row: the number of rows changed.  Backing a failed
statement out is the caller's job — it owns the log.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.execution.evaluator import (Binder, Params, ScopeIndex,
                                      prepare_expression)
from repro.execution.scan import (Batches, Counters, Step, StorageCatalog,
                                  prepare_entries)
from repro.optimizer.plans import InsertPlan, ModifyPlan
from repro.sql import ast_nodes as ast


def modify_step(plan: ModifyPlan, catalog: StorageCatalog,
                params: Params, single: bool) -> Step:
    read = prepare_entries(plan.child, catalog, params)
    index = ScopeIndex(plan.child.scope)
    setters = None if plan.assignments is None else [
        (position, prepare_expression(expr, index))
        for position, expr in plan.assignments]
    return lambda counters: _modify(plan.table_name, read, setters, catalog,
                                    counters)


# staticcheck: hotpath
def _modify(table: str, read: Binder[list[tuple[int, tuple]]],
            setters: list[tuple[int, Binder[Any]]] | None,
            catalog: StorageCatalog, counters: Counters) -> Batches:
    """UPDATE or DELETE what the child access path matches.  Every
    match is read before the first write, so a row the statement moves
    within its own scan order is not visited twice; the old row in hand
    goes down with the write, which then does not fetch it again."""
    params, undo = counters.params, counters.undo
    matches = read(params)
    if setters is None:
        for rowid, row in matches:
            catalog.delete_row(table, rowid)
            undo(partial(catalog.undo_delete, table, rowid, row))
    else:
        bound = [(position, bind(params)) for position, bind in setters]
        for rowid, row in matches:
            new_row = list(row)
            for position, value_of in bound:
                new_row[position] = value_of(row)
            catalog.update_row(table, rowid, tuple(new_row), row)
            undo(partial(catalog.update_row, table, rowid, row))
    yield [(len(matches),)]


def insert_step(plan: InsertPlan, catalog: StorageCatalog,
                params: Params, single: bool) -> Step:
    empty = ScopeIndex(())
    rows = [[(position, expr.bound if type(expr) is ast.Literal
              else _evaluated(prepare_expression(expr, empty)))
             for position, expr in zip(plan.positions, values)]
            for values in plan.rows]
    return lambda counters: _insert(plan.table_name, plan.width, rows,
                                    catalog, counters)


def _evaluated(bind: Binder[Any]) -> Callable[[Params], Any]:
    return lambda params: bind(params)(())


# staticcheck: hotpath
def _insert(table: str, width: int,
            rows: list[list[tuple[int, Callable[[Params], Any]]]],
            catalog: StorageCatalog, counters: Counters) -> Batches:
    params, undo = counters.params, counters.undo
    for values in rows:
        row = [None] * width
        for position, value_of in values:
            row[position] = value_of(params)
        rowid = catalog.insert_row(table, tuple(row))
        undo(partial(catalog.undo_insert, table, rowid))
    yield [(len(rows),)]
