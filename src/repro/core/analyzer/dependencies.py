"""Choosing which recommendations to implement.

Section VI of the paper: "Dependencies, not only between the various
physical structures but between all configuration changes, need to be
identified.  With a dependency graph, the analyzer could actually
search for an optimal set of recommendations."  This module is that
selection step: one function over the recommendation list that drops
what other recommendations make redundant and fits the remaining index
creations under an optional disk budget.

Rules, applied in this order (each dropped recommendation carries its
reason, in the order it was dropped):

* **subsumption** — an index on ``(a)`` is subsumed by a recommended
  index on ``(a, b)`` for the same table: keep the wider one unless the
  narrow one has more than twice its benefit;
* **redundancy with MODIFY** — an index on exactly the primary key of a
  table that is being MODIFYed TO BTREE duplicates the new primary
  structure;
* **minimum benefit** — index creations below ``min_benefit`` go;
* **disk budget** — each index's footprint is estimated from table
  statistics; a greedy benefit-per-byte selection enforces the budget.

Statistics collection and structure changes are always kept.  The
result comes back in
:data:`~repro.core.analyzer.recommendations.APPLICATION_ORDER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.schema import IndexDef
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
    order_for_application,
)
from repro.optimizer.interfaces import synthesize_index_info

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass
class SelectionResult:
    """Outcome of dependency-aware selection."""

    selected: list[Recommendation]
    """The recommendations to implement, in application order."""
    dropped: list[tuple[Recommendation, str]]
    estimated_index_bytes: int = 0


def select_recommendations(recommendations: list[Recommendation],
                           database: "Database | None" = None,
                           disk_budget_bytes: int | None = None,
                           min_benefit: float = 0.0) -> SelectionResult:
    """Pick the subset of ``recommendations`` to actually implement.

    Without a ``database`` nothing is redundant with a MODIFY and no
    index has a footprint, so the budget never binds.
    """
    nodes = list(recommendations)
    dropped: list[tuple[Recommendation, str]] = []
    excluded: set[int] = set()

    def drop(i: int, reason: str) -> None:
        if i not in excluded:
            excluded.add(i)
            dropped.append((nodes[i], reason))

    indexes = [i for i, r in enumerate(nodes)
               if r.kind is RecommendationKind.CREATE_INDEX]
    for w in indexes:
        wide = nodes[w]
        for n in indexes:
            narrow = nodes[n]
            if (narrow.table_name == wide.table_name
                    and len(wide.columns) > len(narrow.columns)
                    and wide.columns[: len(narrow.columns)] == narrow.columns
                    and narrow.estimated_benefit
                    <= wide.estimated_benefit * 2):
                drop(n, f"subsumed by index on ({', '.join(wide.columns)})")

    for modify in nodes:
        if (modify.kind is not RecommendationKind.MODIFY_TO_BTREE
                or database is None
                or not database.catalog.has_table(modify.table_name)):
            continue
        primary_key = database.catalog.table(
            modify.table_name).schema.primary_key
        for i in indexes:
            if (primary_key and nodes[i].table_name == modify.table_name
                    and nodes[i].columns == tuple(primary_key)):
                drop(i, "redundant with MODIFY TO BTREE")

    kept: set[int] = set()
    candidates: list[int] = []
    for i, node in enumerate(nodes):
        if i in excluded:
            continue
        if node.kind is not RecommendationKind.CREATE_INDEX:
            kept.add(i)
        elif node.estimated_benefit < min_benefit:
            dropped.append((node, f"benefit {node.estimated_benefit:.1f} "
                                  f"below threshold {min_benefit:.1f}"))
        else:
            candidates.append(i)

    index_bytes = {i: _index_bytes(i, nodes[i], database)
                   for i in candidates}
    spent = 0
    for i in sorted(candidates,
                    key=lambda i: nodes[i].estimated_benefit
                    / max(1, index_bytes[i]),
                    reverse=True):
        cost = index_bytes[i]
        if disk_budget_bytes is not None \
                and spent + cost > disk_budget_bytes:
            dropped.append((nodes[i], f"disk budget exhausted "
                                      f"({spent + cost:,} > "
                                      f"{disk_budget_bytes:,} bytes)"))
            continue
        spent += cost
        kept.add(i)

    return SelectionResult(
        selected=order_for_application(
            [node for i, node in enumerate(nodes) if i in kept]),
        dropped=dropped,
        estimated_index_bytes=spent,
    )


def _index_bytes(i: int, recommendation: Recommendation,
                 database: "Database | None") -> int:
    """Estimated on-disk footprint of a recommended index (0 when the
    table is unknown)."""
    if database is None \
            or not database.catalog.has_table(recommendation.table_name):
        return 0
    synthesized = synthesize_index_info(
        IndexDef(recommendation.index_name or f"idx_{i}",
                 recommendation.table_name, recommendation.columns,
                 virtual=True),
        database.table_info(recommendation.table_name),
        database.disk.page_size)
    return (synthesized.leaf_pages + synthesized.height) \
        * database.disk.page_size
