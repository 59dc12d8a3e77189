"""Join enumeration by dynamic programming.

The enumerator runs System-R style bitmask DP over connected sub-plans
(cross products only when a query is genuinely disconnected) for a FROM
of up to :data:`MAX_JOIN_INPUTS` inputs; a larger FROM is rejected.  For
every pair joined by an equality it considers hash join and — when the
inner side is a single base table reachable through a B-Tree or a (possibly
virtual) secondary index on the join columns — an index-lookup join; for
a pair with no equality between them, only a nested loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.errors import OptimizerError
from repro.optimizer.access_paths import _finalize
from repro.optimizer.cost_model import Cost, CostModel
from repro.optimizer.interfaces import IndexInfo, TableInfo
from repro.optimizer.plans import (
    HashJoinPlan,
    IndexLookupJoinPlan,
    NestedLoopJoinPlan,
    PlanNode,
)
from repro.optimizer.predicates import JoinEdge, conjoin
from repro.optimizer.selectivity import SelectivityEstimator, StatsResolver
from repro.sql import ast_nodes as ast

#: The most FROM inputs a query may join: dynamic programming over
#: every subset stays cheap up to here.
MAX_JOIN_INPUTS = 6


@dataclass
class SubPlan:
    """A plan covering a set of bindings."""

    plan: PlanNode
    bindings: frozenset[str]

    @property
    def rows(self) -> float:
        return self.plan.estimated_rows

    @property
    def cost(self) -> float:
        return self.plan.estimated_cost


class JoinEnumerator:
    def __init__(self, cost_model: CostModel,
                 estimator: SelectivityEstimator,
                 tables: dict[str, TableInfo],
                 indexes: dict[str, tuple[IndexInfo, ...]],
                 per_binding_predicates: dict[str, list[ast.Expression]],
                 resolve: StatsResolver) -> None:
        self._cost_model = cost_model
        self._estimator = estimator
        self._tables = tables
        self._indexes = indexes
        self._per_binding = per_binding_predicates
        self._resolve = resolve

    # -- public ---------------------------------------------------------------

    def enumerate(self, leaves: dict[str, SubPlan],
                  edges: list[JoinEdge]) -> SubPlan:
        if not leaves:
            raise OptimizerError("no FROM inputs to join")
        if len(leaves) == 1:
            return next(iter(leaves.values()))
        if len(leaves) > MAX_JOIN_INPUTS:
            raise OptimizerError(
                f"a FROM of {len(leaves)} tables is not supported (joins "
                f"of at most {MAX_JOIN_INPUTS} tables are planned)")
        return self._dp(leaves, edges)

    # -- DP ----------------------------------------------------------------------

    def _dp(self, leaves: dict[str, SubPlan],
            edges: list[JoinEdge]) -> SubPlan:
        names = sorted(leaves)
        n = len(names)
        index_of = {name: i for i, name in enumerate(names)}
        best: dict[int, SubPlan] = {
            1 << index_of[name]: plan for name, plan in leaves.items()
        }
        edge_masks = [
            sum(1 << index_of[b] for b in edge.bindings) for edge in edges
        ]
        full = (1 << n) - 1
        for size in range(2, n + 1):
            for combo in combinations(range(n), size):
                mask = sum(1 << i for i in combo)
                candidate = self._best_split(mask, best, edges, edge_masks,
                                             connected_only=True)
                if candidate is None:
                    candidate = self._best_split(mask, best, edges,
                                                 edge_masks,
                                                 connected_only=False)
                if candidate is not None:
                    best[mask] = candidate
        result = best.get(full)
        if result is None:
            raise OptimizerError("join enumeration failed to cover all inputs")
        return result

    def _best_split(self, mask: int, best: dict[int, SubPlan],
                    edges: list[JoinEdge], edge_masks: list[int],
                    connected_only: bool) -> SubPlan | None:
        winner: SubPlan | None = None
        # Iterate proper submasks; visit each unordered split once by
        # requiring the submask to contain the lowest set bit.
        low_bit = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub & low_bit:
                left_plan = best.get(sub)
                right_plan = best.get(other)
                if left_plan is not None and right_plan is not None:
                    between = [
                        edge for edge, emask in zip(edges, edge_masks)
                        if emask & sub and emask & other
                        and not (emask & ~mask)
                    ]
                    if between or not connected_only:
                        for candidate in self._join_candidates(
                                left_plan, right_plan, between):
                            if winner is None or candidate.cost < winner.cost:
                                winner = candidate
            sub = (sub - 1) & mask
        return winner

    # -- join method candidates ------------------------------------------------------

    def _join_candidates(self, left: SubPlan, right: SubPlan,
                         between: list[JoinEdge]) -> list[SubPlan]:
        out_bindings = left.bindings | right.bindings
        out_rows = self._joined_rows(left, right, between)
        candidates: list[SubPlan] = []
        if between:
            candidates.append(self._hash_join(left, right, between, out_rows))
            candidates.append(self._hash_join(right, left, between, out_rows))
        else:  # an equi-join is never a nested loop
            candidates.append(self._nested_loop(left, right, out_rows))
            candidates.append(self._nested_loop(right, left, out_rows))
        for outer, inner in ((left, right), (right, left)):
            if len(inner.bindings) == 1:
                lookup = self._index_lookup(outer, inner, between, out_rows)
                candidates.extend(lookup)
        return [SubPlan(plan, out_bindings) for plan in candidates]

    def _joined_rows(self, left: SubPlan, right: SubPlan,
                     between: list[JoinEdge]) -> float:
        selectivity = 1.0
        for edge in between:
            selectivity *= self._estimator.join_selectivity(
                self._resolve(edge.left), self._resolve(edge.right)
            )
        return max(1.0, left.rows * right.rows * selectivity)

    def _hash_join(self, probe: SubPlan, build: SubPlan,
                   between: list[JoinEdge], out_rows: float) -> PlanNode:
        left_keys = []
        right_keys = []
        for edge in between:
            left_binding = next(iter(edge.bindings & probe.bindings))
            left_keys.append(edge.column_for(left_binding))
            right_keys.append(edge.other(left_binding))
        plan = HashJoinPlan(probe.plan, build.plan, tuple(left_keys),
                            tuple(right_keys))
        cost = _spent(probe.plan) + _spent(build.plan) \
            + self._cost_model.hash_join(build.rows, probe.rows)
        _finalize(plan, out_rows, cost)
        return plan

    def _nested_loop(self, outer: SubPlan, inner: SubPlan,
                     out_rows: float) -> PlanNode:
        plan = NestedLoopJoinPlan(outer.plan, inner.plan)
        cost = _spent(outer.plan) + _spent(inner.plan) \
            + self._cost_model.nested_loop_join(outer.rows, inner.rows, Cost())
        _finalize(plan, out_rows, cost)
        return plan

    def _index_lookup(self, outer: SubPlan, inner: SubPlan,
                      between: list[JoinEdge],
                      out_rows: float) -> list[PlanNode]:
        binding = next(iter(inner.bindings))
        table = self._tables[binding]
        inner_predicates = self._per_binding.get(binding, [])
        edge_by_column: dict[str, JoinEdge] = {}
        for edge in between:
            column = edge.column_for(binding)
            edge_by_column.setdefault(column.name, edge)
        if not edge_by_column:
            return []
        plans: list[PlanNode] = []
        if table.key_columns:  # primary B-Tree, probed by a key prefix
            plans.extend(self._lookup_via(
                outer, binding, table, None, table.key_columns,
                table.fetch_height, 0.0, edge_by_column, between,
                inner_predicates, out_rows,
            ))
        for index in self._indexes.get(binding, ()):  # secondary indexes
            plans.extend(self._lookup_via(
                outer, binding, table, index, index.definition.column_names,
                index.height, table.fetch_height, edge_by_column, between,
                inner_predicates, out_rows,
            ))
        return plans

    def _lookup_via(self, outer: SubPlan, binding: str, table: TableInfo,
                    index: IndexInfo | None, key_columns: tuple[str, ...],
                    lookup_height: float, fetch_height: float,
                    edge_by_column: dict[str, JoinEdge],
                    between: list[JoinEdge],
                    inner_predicates: list[ast.Expression],
                    out_rows: float) -> list[PlanNode]:
        prefix: list[str] = []
        for column in key_columns:
            if column in edge_by_column:
                prefix.append(column)
            else:
                break
        if not prefix:
            return []
        used_edges = [edge_by_column[c] for c in prefix]
        outer_keys = tuple(e.other(binding) for e in used_edges)
        leftover_edges = [e for e in between if e not in used_edges]
        residual = conjoin(
            [e.to_expression() for e in leftover_edges] + inner_predicates
        )
        edge_selectivity = 1.0
        for edge in used_edges:
            edge_selectivity *= self._estimator.join_selectivity(
                self._resolve(edge.left), self._resolve(edge.right)
            )
        matches_per_probe = max(0.0, table.row_count * edge_selectivity)
        plan = IndexLookupJoinPlan(
            outer.plan, table.name, binding, table.schema.column_names,
            outer_keys, tuple(prefix),
            index.definition.name if index else None,
            index.is_virtual if index else False, residual)
        cost = _spent(outer.plan) + self._cost_model.index_lookup_join(
            outer_rows=outer.rows,
            lookup_height=lookup_height,
            matches_per_probe=matches_per_probe,
            fetch_height=fetch_height,
        ) + self._cost_model.filter(
            outer.rows * matches_per_probe,
            max(1, len(inner_predicates) + len(leftover_edges)),
        )
        # The residual re-applies the inner predicates, so the output
        # cardinality equals the generic joined-rows estimate.
        _finalize(plan, out_rows, cost)
        return [plan]


def _spent(plan: PlanNode) -> Cost:
    """A plan's cumulative estimated cost."""
    return Cost(plan.estimated_io_cost, plan.estimated_cpu_cost)
