"""The operators that write: INSERT, UPDATE and DELETE.

Each applies its changes through the engine's single-row operations
(index maintenance, triggers and uniqueness checks live there), hands
the inverse of every applied change to the execution's undo log, and
outputs one row: the number of rows changed.  Backing a failed
statement out is the caller's job — it owns the log.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.execution.evaluator import compile_expression
from repro.execution.scan import Counters, StorageCatalog, matching_entries
from repro.optimizer.plans import InsertPlan, ModifyPlan
from repro.sql import ast_nodes as ast


# staticcheck: hotpath
def modify_rows(plan: ModifyPlan, catalog: StorageCatalog,
                counters: Counters) -> Iterator[tuple]:
    """UPDATE or DELETE what the child access path matches.  Every
    match is read before the first write, so a row the statement moves
    within its own scan order is not visited twice; the old row in hand
    goes down with the write, which then does not fetch it again."""
    table, params, undo = plan.table_name, counters.params, counters.undo
    matches = matching_entries(plan.child, catalog, params)
    if plan.assignments is None:
        for rowid, row in matches:
            catalog.delete_row(table, rowid)
            undo(partial(catalog.undo_delete, table, rowid, row))
    else:
        setters = [(position, compile_expression(expr, plan.child.scope,
                                                 params))
                   for position, expr in plan.assignments]
        for rowid, row in matches:
            new_row = list(row)
            for position, value_of in setters:
                new_row[position] = value_of(row)
            catalog.update_row(table, rowid, tuple(new_row), row)
            undo(partial(catalog.update_row, table, rowid, row))
    yield (len(matches),)


# staticcheck: hotpath
def insert_rows(plan: InsertPlan, catalog: StorageCatalog,
                counters: Counters) -> Iterator[tuple]:
    table, params, undo = plan.table_name, counters.params, counters.undo
    for values in plan.rows:
        row = [None] * plan.width
        for position, expr in zip(plan.positions, values):
            row[position] = expr.bound(params) \
                if type(expr) is ast.Literal \
                else compile_expression(expr, (), params)(())
        rowid = catalog.insert_row(table, tuple(row))
        undo(partial(catalog.undo_insert, table, rowid))
    yield (len(plan.rows),)
