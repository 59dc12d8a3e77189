"""What-if analysis: feed the optimizer hypothetical (virtual) indexes.

As in the AutoAdmin what-if utility the paper cites [14], a virtual
index exists only in the catalog: the optimizer costs it like a real
index (its geometry is synthesized from table statistics), and whether
the optimizer *chooses* it for a statement is the advisor's signal that
the index would actually be used — requirement ii of the paper's
concept: all cost-based decisions use the DBMS' own cost model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.catalog.schema import IndexDef
from repro.optimizer.optimizer import OptimizationResult, Optimizer
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass(frozen=True)
class WhatIfOutcome:
    """Result of optimizing one statement with hypothetical indexes."""

    baseline: OptimizationResult
    hypothetical: OptimizationResult
    virtual_indexes_used: tuple[str, ...]
    """The candidates the hypothetical plan reads, in plan order."""

    @property
    def baseline_cost(self) -> float:
        return self.baseline.estimated_cost.total

    @property
    def hypothetical_cost(self) -> float:
        return self.hypothetical.estimated_cost.total

    @property
    def benefit(self) -> float:
        """Estimated cost reduction (>= 0)."""
        return max(0.0, self.baseline_cost - self.hypothetical_cost)


@contextmanager
def hypothetical_indexes(database: "Database",
                         definitions: list[IndexDef]) -> Iterator[list[IndexDef]]:
    """Temporarily register virtual indexes in the catalog."""
    created: list[IndexDef] = []
    try:
        for definition in definitions:
            if not definition.virtual:
                raise ValueError(
                    f"hypothetical index {definition.name!r} must be virtual")
            if not database.catalog.has_index(definition.name):
                database.create_index(definition)
                created.append(definition)
        yield created
    finally:
        for definition in created:
            database.drop_index(definition.name)


def what_if_optimize(database: "Database", statement: str | ast.Statement,
                     candidates: list[IndexDef]) -> WhatIfOutcome:
    """Optimize a SELECT (text, or already parsed) with and without
    ``candidates`` available."""
    if isinstance(statement, str):
        statement = parse_statement(statement)
    if not isinstance(statement, ast.SelectStatement):
        raise ValueError("what-if analysis applies to SELECT statements")
    optimizer = Optimizer(database)
    baseline = optimizer.optimize_select(statement, include_virtual=False)
    with hypothetical_indexes(database, candidates):
        hypothetical = optimizer.optimize_select(statement,
                                                 include_virtual=True)
    names = {candidate.name for candidate in candidates}
    return WhatIfOutcome(baseline, hypothetical, tuple(
        name for name in hypothetical.used_indexes if name in names))
