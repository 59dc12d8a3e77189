"""Row-insert triggers and alerts.

The paper's daemon appends monitor data to the workload database and
relies on ordinary triggers/procedures there for active alerting
("inform the DBA when the maximum number of users is reached").  This
module provides that substrate: a trigger watches one table, evaluates
its condition over each inserted row, and emits an :class:`Alert`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.catalog.schema import TableSchema
from repro.errors import DuplicateObjectError, UnknownObjectError
from repro.execution.evaluator import compile_predicate
from repro.sql import ast_nodes as ast


@dataclass(frozen=True)
class Alert:
    """One fired alert."""

    trigger_name: str
    table_name: str
    message: str
    row: tuple
    fired_at: float


@dataclass
class TriggerDef:
    name: str
    table_name: str
    condition: ast.Expression
    message: str
    predicate: Callable[[tuple], bool]


class TriggerManager:
    """Registry and dispatcher for per-table insert triggers."""

    def __init__(self) -> None:
        self._triggers: dict[str, TriggerDef] = {}
        self._by_table: dict[str, list[TriggerDef]] = {}
        self.alerts: list[Alert] = []
        self.listeners: list[Callable[[Alert], None]] = []

    def create(self, name: str, schema: TableSchema,
               condition: ast.Expression, message: str) -> TriggerDef:
        key = name.lower()
        if key in self._triggers:
            raise DuplicateObjectError(f"trigger {name!r} already exists")
        scope = tuple((schema.name, c) for c in schema.column_names)
        trigger = TriggerDef(
            name=key,
            table_name=schema.name.lower(),
            condition=condition,
            message=message,
            predicate=compile_predicate(condition, scope, None,
                                        {schema.name: schema.column_types}),
        )
        self._triggers[key] = trigger
        self._by_table.setdefault(trigger.table_name, []).append(trigger)
        return trigger

    def drop(self, name: str) -> None:
        key = name.lower()
        trigger = self._triggers.pop(key, None)
        if trigger is None:
            raise UnknownObjectError(f"trigger {name!r} does not exist")
        self._by_table[trigger.table_name] = [
            t for t in self._by_table.get(trigger.table_name, [])
            if t.name != key
        ]

    def triggers_on(self, table_name: str) -> tuple[TriggerDef, ...]:
        return tuple(self._by_table.get(table_name.lower(), ()))

    def fire_on_insert(self, table_name: str, row: tuple,
                       now: float) -> list[Alert]:
        """Evaluate the table's triggers against an inserted row."""
        fired: list[Alert] = []
        for trigger in self._by_table.get(table_name.lower(), ()):
            if trigger.predicate(row):
                alert = Alert(
                    trigger_name=trigger.name,
                    table_name=trigger.table_name,
                    message=trigger.message,
                    row=row,
                    fired_at=now,
                )
                fired.append(alert)
                self.alerts.append(alert)
                for listener in self.listeners:
                    listener(alert)
        return fired
