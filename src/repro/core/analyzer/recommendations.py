"""Recommendation model and the implementation phase of the loop.

Each rule/advisor emits :class:`Recommendation` objects carrying the
SQL that would implement them.  ``apply_recommendations`` executes the
accepted set against a session — in the paper this step is manual (the
DBA reviews the report first); here both modes are supported.

The implementation seam is guarded by the ``ddl.apply`` failure point
(:mod:`repro.faultsim`) so tests can fail any individual change, and
:func:`undo_sql` captures the inverse statement *before* a change runs
— the autonomous tuner journals it at intent time so an interrupted
change can be rolled back after a crash.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import faultsim
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.engine.session import Session


class RecommendationKind(enum.Enum):
    CREATE_STATISTICS = "create statistics"
    CREATE_INDEX = "create index"
    MODIFY_TO_BTREE = "modify to btree"


@dataclass
class Recommendation:
    """One proposed physical-design change."""

    kind: RecommendationKind
    table_name: str
    columns: tuple[str, ...] = ()
    index_name: str = ""
    reason: str = ""
    estimated_benefit: float = 0.0
    """Estimated cost-unit reduction across the workload (0 if unknown)."""
    statements_affected: tuple[int, ...] = ()
    """Hashes of the statements that motivated this recommendation."""

    def to_sql(self) -> str:
        if self.kind is RecommendationKind.CREATE_STATISTICS:
            if self.columns:
                cols = ", ".join(self.columns)
                return f"create statistics on {self.table_name} ({cols})"
            return f"create statistics on {self.table_name}"
        if self.kind is RecommendationKind.CREATE_INDEX:
            cols = ", ".join(self.columns)
            return (f"create index {self.index_name} "
                    f"on {self.table_name} ({cols})")
        return f"modify {self.table_name} to btree"

    def describe(self) -> str:
        line = f"[{self.kind.value}] {self.to_sql()}"
        if self.reason:
            line += f"  -- {self.reason}"
        return line


@dataclass
class AppliedRecommendation:
    recommendation: Recommendation
    sql: str
    succeeded: bool
    error: str = ""


APPLICATION_ORDER = {
    RecommendationKind.MODIFY_TO_BTREE: 0,
    RecommendationKind.CREATE_INDEX: 1,
    RecommendationKind.CREATE_STATISTICS: 2,
}


def order_for_application(
        recommendations: list[Recommendation]) -> list[Recommendation]:
    """MODIFY operations first (so index builds land on the final
    structure), then index creations, then statistics collection (so
    histograms reflect the final physical layout)."""
    return sorted(recommendations, key=lambda r: APPLICATION_ORDER[r.kind])


def undo_sql(recommendation: Recommendation,
             database: "Database") -> str:
    """The inverse statement, captured *before* the change is applied.

    * index creation undoes with ``drop index``;
    * MODIFY undoes with a MODIFY back to the structure the table has
      right now (which is why this must run at intent time);
    * statistics collection is idempotent and cheap — it has no undo
      and is recovered by completing forward instead.
    """
    if recommendation.kind is RecommendationKind.CREATE_INDEX:
        return f"drop index {recommendation.index_name}"
    if recommendation.kind is RecommendationKind.MODIFY_TO_BTREE:
        current = database.catalog.table(recommendation.table_name).structure
        return f"modify {recommendation.table_name} to {current.value}"
    return ""


def apply_one(session: "Session",
              recommendation: Recommendation) -> AppliedRecommendation:
    """Implement one recommendation; failures are reported, not raised.

    The ``ddl.apply`` failure point fires before the statement reaches
    the engine, so an injected fault behaves like a change that never
    started (distinct from ``session.execute``, which fails *inside*
    the monitored pipeline).
    """
    sql = recommendation.to_sql()
    try:
        faultsim.fire("ddl.apply", error=ExecutionError)
        session.execute(sql)
        return AppliedRecommendation(recommendation, sql, True)
    except Exception as error:  # noqa: BLE001 - report, don't abort
        return AppliedRecommendation(recommendation, sql, False, str(error))


def apply_recommendations(session: "Session",
                          recommendations: list[Recommendation],
                          ) -> list[AppliedRecommendation]:
    """Implement the accepted recommendations through a session."""
    return [apply_one(session, recommendation)
            for recommendation in order_for_application(recommendations)]
