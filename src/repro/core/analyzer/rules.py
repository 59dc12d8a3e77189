"""Rule-based analysis: the paper's three explicit rules.

* **Cost divergence** — "actual and estimated costs of a statement
  differ significantly: may be caused by missing or outdated
  statistics" -> recommend CREATE STATISTICS on the referenced tables.
  A statement whose captured plan counted its nodes' rows is judged
  by them instead: divergent if a node's row estimate missed, and then
  only the tables of the columns that estimate rests on.
* **Missing histograms** — "one or more attributes of a table have no
  statistics: histograms should be created".
* **Overflow pages** — "a table with a fixed amount of main data pages
  has already more than 10 % overflow pages: the table should be
  restructured or modified to storage structure B-Tree".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
)
from repro.core.analyzer.workload_view import WorkloadView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


#: Flag statements whose actual/estimated cost ratio reaches this.
DIVERGENCE_RATIO = 2.0
#: Ignore statements cheaper than this (noise floor, in cost units).
DIVERGENCE_MIN_COST = 10.0
#: The paper's 10 % overflow-page threshold.
OVERFLOW_RATIO = 0.10
#: Statements must have run at least this often to be considered.
MIN_EXECUTIONS = 1


@dataclass
class RuleFindings:
    """What the rule pass concluded (feeds the textual report)."""

    divergent_statements: list[int]
    tables_needing_statistics: list[str]
    attributes_needing_histograms: list[tuple[str, str]]
    overflow_tables: list[str]
    recommendations: list[Recommendation]
    misestimated: dict[int, tuple[str, ...]] = field(default_factory=dict)
    """Per statement whose captured plan counted its nodes' rows, the
    ``table.column`` pairs whose row estimates missed (none: empty)."""


def run_rules(view: WorkloadView,
              database: "Database | None" = None) -> RuleFindings:
    """Apply the rule set to an aggregated workload view.

    ``database`` (optional) lets the rules double-check live catalog
    state — e.g. skip a statistics recommendation when statistics were
    collected after the workload was recorded.
    """
    divergent: list[int] = []
    stats_tables: dict[str, list[int]] = {}
    misestimated = view.misses()

    for profile in view.statements.values():
        if profile.executions < MIN_EXECUTIONS:
            continue
        text_hash = profile.text_hash
        expensive = max(profile.avg_actual_cost,
                        profile.avg_estimated_cost) >= DIVERGENCE_MIN_COST
        if text_hash in misestimated:
            tables = {column.partition(".")[0]
                      for column in misestimated[text_hash]}
            if not tables:
                continue
        elif expensive and profile.cost_divergence >= DIVERGENCE_RATIO:
            tables = profile.referenced_tables
        else:
            continue
        divergent.append(text_hash)
        for table in tables:
            stats_tables.setdefault(table, []).append(text_hash)

    # Drop tables whose statistics are already fresh in the live catalog.
    def needs_statistics(table: str) -> bool:
        if database is None or not database.catalog.has_table(table):
            return True
        entry = database.catalog.table(table)
        if entry.is_virtual:
            return False
        if entry.statistics is None:
            return True
        storage = database.storage_for(table)
        if storage.row_count == 0:
            return False
        staleness = storage.modifications_since_stats / storage.row_count
        return staleness > 0.2

    tables_needing = sorted(t for t in stats_tables if needs_statistics(t))

    attributes_needing = sorted(
        (table, column)
        for table, column in view.attributes_without_histograms
        if needs_statistics(table)
    )

    overflow = sorted(
        profile.table_name for profile in view.tables.values()
        if profile.overflow_ratio > OVERFLOW_RATIO
        and profile.structure == "heap"
    )

    recommendations: list[Recommendation] = []
    for table in tables_needing:
        recommendations.append(Recommendation(
            kind=RecommendationKind.CREATE_STATISTICS,
            table_name=table,
            reason=(f"estimated and actual costs or rows diverge for "
                    f"{len(stats_tables[table])} statement(s) referencing "
                    f"this table"),
            statements_affected=tuple(stats_tables[table]),
        ))
    covered = {r.table_name for r in recommendations}
    histogram_columns: dict[str, list[str]] = {}
    for table, column in attributes_needing:
        if table not in covered:  # full-table statistics already recommended
            histogram_columns.setdefault(table, []).append(column)
    for table, columns in sorted(histogram_columns.items()):
        recommendations.append(Recommendation(
            kind=RecommendationKind.CREATE_STATISTICS,
            table_name=table,
            columns=tuple(sorted(columns)),
            reason="referenced attributes have no histograms",
        ))
    for table in overflow:
        ratio = view.tables[table].overflow_ratio
        recommendations.append(Recommendation(
            kind=RecommendationKind.MODIFY_TO_BTREE,
            table_name=table,
            reason=(f"{ratio:.0%} of the table's pages are overflow pages "
                    f"(threshold {OVERFLOW_RATIO:.0%})"),
        ))
    return RuleFindings(
        divergent_statements=divergent,
        tables_needing_statistics=tables_needing,
        attributes_needing_histograms=attributes_needing,
        overflow_tables=overflow,
        recommendations=recommendations,
        misestimated=misestimated,
    )
