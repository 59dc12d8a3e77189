"""Top-level optimizer: SELECT statement -> physical plan.

The pipeline mirrors a classic System-R optimizer:

1. resolve FROM bindings and qualify every column reference,
2. split WHERE/ON into conjuncts and classify them (single-table,
   equi-join edge, residual),
3. pick the cheapest access path per binding,
4. enumerate join orders/methods,
5. layer residual filters, aggregation, HAVING, ordering, DISTINCT,
   projection and LIMIT on top, propagating cardinalities and costs.

With ``include_virtual=True`` the optimizer also considers virtual
indexes — the what-if mode the analyzer's index advisor drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.config import EngineConfig
from repro.errors import ExecutionError, OptimizerError
from repro.optimizer.access_paths import AccessPathSelector, _finalize
from repro.optimizer.cost_model import Cost, CostModel
from repro.optimizer.interfaces import CatalogView, IndexInfo, TableInfo
from repro.optimizer.join_order import JoinEnumerator, SubPlan
from repro.optimizer.plans import (
    AggregatePlan,
    DistinctPlan,
    EmptySourcePlan,
    FilterPlan,
    HashJoinPlan,
    InsertPlan,
    LeftOuterJoinPlan,
    LimitPlan,
    ModifyPlan,
    NestedLoopJoinPlan,
    PlanNode,
    ProjectPlan,
    SortPlan,
)
from repro.optimizer.predicates import (
    BindingResolver,
    classify_conjuncts,
    conjoin,
    split_conjuncts,
)
from repro.optimizer.selectivity import SelectivityEstimator
from repro.sql import ast_nodes as ast


@dataclass
class OptimizationResult:
    """The plan plus everything the monitor wants to log about it."""

    plan: PlanNode
    output_names: tuple[str, ...]
    estimated_cost: Cost
    estimated_rows: float
    bindings: dict[str, str] = field(default_factory=dict)
    """binding -> table name."""
    referenced_tables: tuple[str, ...] = ()
    referenced_columns: tuple[tuple[str, str], ...] = ()
    """(table name, column name) pairs actually referenced."""
    available_indexes: tuple[str, ...] = ()
    used_indexes: tuple[str, ...] = ()
    pinned_slots: tuple[int, ...] = ()
    """Literal slots whose values became structure of the plan (see
    :func:`_structural_slots`); with the statement's own
    ``pinned_slots`` they limit which texts may reuse it."""

    def explain(self) -> str:
        return self.plan.explain()

    @cached_property
    def used_indexes_text(self) -> str:
        """``used_indexes`` comma-joined, as workload records carry
        them: built once per plan, not once per execution."""
        return ",".join(self.used_indexes)


class Optimizer:
    """Cost-based optimizer over a :class:`CatalogView`."""

    def __init__(self, view: CatalogView,
                 config: EngineConfig | None = None) -> None:
        self._view = view
        self.config = config or EngineConfig()
        self.cost_model = CostModel(self.config.cost_model)
        self.estimator = SelectivityEstimator()
        self._paths = AccessPathSelector(self.cost_model, self.estimator)

    # -- entry point ---------------------------------------------------------

    def optimize_select(self, stmt: ast.SelectStatement,
                        include_virtual: bool = False) -> OptimizationResult:
        if stmt.from_table is None:
            return self._constant_select(stmt)
        bindings = self._collect_bindings(stmt)
        tables = {b: self._view.table_info(t) for b, t in bindings.items()}
        indexes = {
            b: self._view.indexes_on(t, include_virtual=include_virtual)
            for b, t in bindings.items()
        }
        resolver = BindingResolver({
            b: info.schema.column_names for b, info in tables.items()
        })

        def column_stats(ref: ast.ColumnRef):
            info = tables.get(ref.table or "")
            if info is None or info.statistics is None:
                return None
            return info.statistics.column(ref.name)

        where_conjuncts = [resolver.qualify(c)
                           for c in split_conjuncts(stmt.where)]
        on_conjuncts: list[ast.Expression] = []
        for join in stmt.joins:
            if join.condition is not None:
                on_conjuncts.extend(
                    resolver.qualify(c)
                    for c in split_conjuncts(join.condition)
                )
        conjuncts = where_conjuncts + on_conjuncts
        row_bytes = sum(info.avg_row_bytes for info in tables.values())
        if any(join.kind == "left" for join in stmt.joins):
            # Outer joins pin the join order and WHERE placement: joins
            # run in FROM order and the WHERE filter applies after them
            # (SQL semantics for the NULL-padded side).
            plan = self._plan_with_outer_joins(stmt, bindings, tables,
                                               indexes, resolver,
                                               column_stats)
            plan = self._add_filter(plan, conjoin(where_conjuncts),
                                    column_stats)
        else:
            classified = classify_conjuncts(conjuncts)
            leaves = {
                binding: SubPlan(
                    self._paths.best_path(
                        binding, tables[binding], indexes[binding],
                        classified.per_binding.get(binding, []),
                        column_stats,
                    ),
                    frozenset((binding,)),
                )
                for binding in bindings
            }
            enumerator = JoinEnumerator(
                self.cost_model, self.estimator, tables, indexes,
                classified.per_binding, column_stats,
                self.config.join_dp_threshold,
            )
            joined = enumerator.enumerate(leaves, classified.edges)
            plan = joined.plan
            if classified.residual:
                plan = self._add_filter(plan, conjoin(classified.residual),
                                        column_stats)

        select_items = self._expand_select_items(stmt, resolver)
        qualified_items = [
            ast.SelectItem(resolver.qualify(item.expression), item.alias)
            for item in select_items
        ]
        group_exprs = tuple(resolver.qualify(e) for e in stmt.group_by)
        having = resolver.qualify(stmt.having) if stmt.having else None
        order_items = tuple(
            ast.OrderItem(self._resolve_order_expression(
                item.expression, qualified_items, resolver),
                item.descending)
            for item in stmt.order_by
        )

        aggregates = self._collect_aggregates(qualified_items, having,
                                              order_items)
        if aggregates or group_exprs:
            plan = self._add_aggregation(plan, group_exprs, aggregates,
                                         tables, column_stats)
            if having is not None:
                plan = self._add_filter(plan, having, column_stats)
            if order_items:
                plan = self._add_sort(plan, order_items, row_bytes)
            plan = self._add_project(plan, qualified_items)
        else:
            if order_items and not stmt.distinct:
                plan = self._add_sort(plan, order_items, row_bytes)
            plan = self._add_project(plan, qualified_items)
            if stmt.distinct:
                plan = self._add_distinct(plan)
                if order_items:
                    plan = self._add_sort(plan, order_items, row_bytes)
        if stmt.limit is not None or stmt.offset is not None:
            plan = self._add_limit(plan, stmt.limit, stmt.offset)

        output_names = tuple(
            item.output_name(i) for i, item in enumerate(qualified_items)
        )
        referenced = self._referenced_columns(bindings, conjuncts,
                                              qualified_items, group_exprs,
                                              having, order_items)
        return OptimizationResult(
            plan=plan,
            output_names=output_names,
            estimated_cost=Cost(plan.estimated_io_cost,
                                plan.estimated_cpu_cost),
            estimated_rows=plan.estimated_rows,
            bindings=bindings,
            referenced_tables=tuple(dict.fromkeys(bindings.values())),
            referenced_columns=referenced,
            available_indexes=tuple(
                info.definition.name
                for per_binding in indexes.values()
                for info in per_binding
            ),
            used_indexes=plan.used_indexes(),
            pinned_slots=_structural_slots(
                stmt, bool(aggregates or group_exprs)),
        )

    def optimize_modify(self, stmt: ast.InsertStatement | ast.UpdateStatement
                        | ast.DeleteStatement) -> OptimizationResult:
        """Plan a DML statement: UPDATE / DELETE as the access path a
        SELECT with the same WHERE takes on the table, under a modify
        node; INSERT as column positions + value expressions."""
        table = self._view.table_info(stmt.table_name)
        schema = table.schema
        if isinstance(stmt, ast.InsertStatement):
            positions = tuple(schema.column_index(c) for c in stmt.columns) \
                or tuple(range(len(schema.columns)))
            for row in stmt.rows:
                if len(row) != len(positions):
                    raise ExecutionError(f"INSERT expects {len(positions)} "
                                         f"values, got {len(row)}")
            plan: PlanNode = InsertPlan(table.name, len(schema.columns),
                                        positions, stmt.rows)
            _finalize(plan, float(len(stmt.rows)), Cost())
        else:
            binding = stmt.table_name.lower()
            resolver = BindingResolver({binding: schema.column_names})
            stats = table.statistics
            child = self._paths.best_path(
                binding, table, self._view.indexes_on(stmt.table_name),
                [resolver.qualify(c) for c in split_conjuncts(stmt.where)],
                lambda ref: stats and stats.column(ref.name))
            assignments = None
            if isinstance(stmt, ast.UpdateStatement):
                assignments = tuple(
                    (schema.column_index(column), resolver.qualify(expr))
                    for column, expr in stmt.assignments)
            plan = ModifyPlan(child, table.name, assignments)
            _finalize(plan, child.estimated_rows, self._cumulative(child))
        return OptimizationResult(
            plan=plan,
            output_names=("rowcount",),
            estimated_cost=self._cumulative(plan),
            estimated_rows=plan.estimated_rows,
        )

    # -- helpers ---------------------------------------------------------------

    def _constant_select(self, stmt: ast.SelectStatement) -> OptimizationResult:
        """SELECT without FROM: a one-row constant projection."""
        if any(isinstance(i.expression, ast.Star) for i in stmt.select_items):
            raise OptimizerError("SELECT * requires a FROM clause")
        names = tuple(item.output_name(i)
                      for i, item in enumerate(stmt.select_items))
        base = ProjectPlan(EmptySourcePlan(), tuple(
            i.expression for i in stmt.select_items), names)
        _finalize(base, 1.0, Cost())
        plan: PlanNode = base
        if stmt.limit is not None or stmt.offset is not None:
            plan = self._add_limit(plan, stmt.limit, stmt.offset)
        return OptimizationResult(
            plan=plan,
            output_names=names,
            estimated_cost=Cost(),
            estimated_rows=1.0,
        )

    def _collect_bindings(self, stmt: ast.SelectStatement) -> dict[str, str]:
        bindings: dict[str, str] = {}
        refs = [stmt.from_table] + [j.right for j in stmt.joins]
        for ref in refs:
            if ref.binding in bindings:
                raise OptimizerError(
                    f"duplicate table binding {ref.binding!r}; use aliases"
                )
            bindings[ref.binding] = ref.table_name
        return bindings

    def _expand_select_items(self, stmt: ast.SelectStatement,
                             resolver: BindingResolver) -> list[ast.SelectItem]:
        items: list[ast.SelectItem] = []
        for item in stmt.select_items:
            expr = item.expression
            if isinstance(expr, ast.Star):
                targets = ((expr.table,) if expr.table
                           else resolver.bindings)
                for binding in targets:
                    if binding not in resolver.bindings:
                        raise OptimizerError(
                            f"unknown table binding {binding!r} in select list"
                        )
                    for column in resolver.columns_of(binding):
                        items.append(ast.SelectItem(
                            ast.ColumnRef(column, table=binding)))
            else:
                items.append(item)
        return items

    def _resolve_order_expression(self, expr: ast.Expression,
                                  select_items: list[ast.SelectItem],
                                  resolver: BindingResolver) -> ast.Expression:
        """ORDER BY may name a select alias or any source expression."""
        if isinstance(expr, ast.ColumnRef) and expr.table is None:
            for item in select_items:
                if item.alias == expr.name:
                    return item.expression
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            ordinal = expr.value
            if not 1 <= ordinal <= len(select_items):
                raise OptimizerError(
                    f"ORDER BY position {ordinal} is out of range")
            return select_items[ordinal - 1].expression
        return resolver.qualify(expr)

    @staticmethod
    def _collect_aggregates(select_items: list[ast.SelectItem],
                            having: ast.Expression | None,
                            order_items: tuple[ast.OrderItem, ...],
                            ) -> tuple[ast.FunctionCall, ...]:
        seen: dict[str, ast.FunctionCall] = {}
        sources = [i.expression for i in select_items]
        if having is not None:
            sources.append(having)
        sources.extend(i.expression for i in order_items)
        for source in sources:
            for node in ast.walk_expression(source):
                if isinstance(node, ast.FunctionCall) and node.is_aggregate:
                    seen.setdefault(node.to_sql(), node)
        return tuple(seen.values())

    # -- outer-join planning ------------------------------------------------------

    def _plan_with_outer_joins(self, stmt: ast.SelectStatement,
                               bindings: dict[str, str],
                               tables: dict[str, TableInfo],
                               indexes, resolver, resolve) -> PlanNode:
        """Left-deep, FROM-order join tree for queries with LEFT JOINs.

        Predicates are not pushed into the scans (WHERE is applied by
        the caller after the join tree), so every leaf is a plain
        cheapest-path scan without filters."""
        first = stmt.from_table.binding
        plan = self._paths.best_path(first, tables[first], indexes[first],
                                     [], resolve)
        covered = [first]
        for join in stmt.joins:
            binding = join.right.binding
            right = self._paths.best_path(binding, tables[binding],
                                          indexes[binding], [], resolve)
            condition = (resolver.qualify(join.condition)
                         if join.condition is not None else None)
            left_keys, right_keys, residual = self._split_equi_condition(
                condition, set(covered), binding)
            edge_selectivity = 0.1 if condition is not None else 1.0
            inner_rows = max(1.0, plan.estimated_rows
                             * right.estimated_rows * edge_selectivity)
            if join.kind == "left":
                out_rows = max(plan.estimated_rows, inner_rows)
                joined = LeftOuterJoinPlan(
                    plan, right, None if left_keys else condition, left_keys,
                    right_keys, residual if left_keys else None)
                cost = (self._cumulative(plan) + self._cumulative(right)
                        + self.cost_model.hash_join(right.estimated_rows,
                                                    plan.estimated_rows))
            elif left_keys:
                joined = HashJoinPlan(plan, right, left_keys, right_keys,
                                      residual)
                out_rows = inner_rows
                cost = (self._cumulative(plan) + self._cumulative(right)
                        + self.cost_model.hash_join(right.estimated_rows,
                                                    plan.estimated_rows))
            else:
                joined = NestedLoopJoinPlan(plan, right, condition)
                out_rows = inner_rows if condition is not None else max(
                    1.0, plan.estimated_rows * right.estimated_rows)
                cost = (self._cumulative(plan) + self._cumulative(right)
                        + self.cost_model.nested_loop_join(
                            plan.estimated_rows, right.estimated_rows,
                            Cost()))
            _finalize(joined, out_rows, cost)
            plan = joined
            covered.append(binding)
        return plan

    @staticmethod
    def _split_equi_condition(condition: ast.Expression | None,
                              left_bindings: set[str], right_binding: str):
        """Split an ON condition into hash-join keys plus a residual."""
        if condition is None:
            return (), (), None
        left_keys: list[ast.Expression] = []
        right_keys: list[ast.Expression] = []
        residual: list[ast.Expression] = []
        for conjunct in split_conjuncts(condition):
            if (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="
                    and isinstance(conjunct.left, ast.ColumnRef)
                    and isinstance(conjunct.right, ast.ColumnRef)):
                sides = {conjunct.left.table, conjunct.right.table}
                if (conjunct.left.table in left_bindings
                        and conjunct.right.table == right_binding):
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    continue
                if (conjunct.right.table in left_bindings
                        and conjunct.left.table == right_binding):
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    continue
            residual.append(conjunct)
        if not left_keys:
            return (), (), condition
        return tuple(left_keys), tuple(right_keys), conjoin(residual)

    # -- operator layering -------------------------------------------------------

    def _add_filter(self, child: PlanNode, condition: ast.Expression | None,
                    resolve) -> PlanNode:
        if condition is None:
            return child
        selectivity = self.estimator.selectivity(condition, resolve)
        return self._over(FilterPlan(child, condition),
                          child.estimated_rows * selectivity,
                          self.cost_model.filter(child.estimated_rows))

    def _add_aggregation(self, child: PlanNode,
                         group_exprs: tuple[ast.Expression, ...],
                         aggregates: tuple[ast.FunctionCall, ...],
                         tables: dict[str, TableInfo],
                         resolve) -> PlanNode:
        groups = 1.0
        for expr in group_exprs:
            ndv = 10.0
            if isinstance(expr, ast.ColumnRef):
                stats = resolve(expr)
                if stats is not None and stats.n_distinct > 0:
                    ndv = float(stats.n_distinct)
            groups *= ndv
        groups = min(groups, max(1.0, child.estimated_rows))
        return self._over(AggregatePlan(child, group_exprs, aggregates),
                          groups, self.cost_model.aggregate(
                              child.estimated_rows, groups))

    def _add_sort(self, child: PlanNode,
                  order_items: tuple[ast.OrderItem, ...],
                  row_bytes: float) -> PlanNode:
        pages = max(1.0, child.estimated_rows * row_bytes
                    / self.config.storage.page_size)
        return self._over(
            SortPlan(child, tuple((i.expression, i.descending)
                                  for i in order_items)),
            child.estimated_rows,
            self.cost_model.sort(child.estimated_rows, pages))

    def _add_distinct(self, child: PlanNode) -> PlanNode:
        return self._over(DistinctPlan(child), child.estimated_rows,
                          self.cost_model.aggregate(child.estimated_rows,
                                                    child.estimated_rows))

    def _add_project(self, child: PlanNode,
                     select_items: list[ast.SelectItem]) -> PlanNode:
        names = tuple(item.output_name(i)
                      for i, item in enumerate(select_items))
        return self._over(
            ProjectPlan(child, tuple(i.expression for i in select_items),
                        names),
            child.estimated_rows,
            self.cost_model.project(child.estimated_rows, len(select_items)))

    def _add_limit(self, child: PlanNode, limit: int | None,
                   offset: int | None) -> PlanNode:
        rows = child.estimated_rows
        if offset:
            rows = max(0.0, rows - offset)
        if limit is not None:
            rows = min(rows, float(limit))
        return self._over(LimitPlan(child, limit, offset), rows, Cost())

    def _over(self, plan: PlanNode, rows: float, own: Cost) -> PlanNode:
        """``plan``, estimated at ``rows``, costing ``own`` on top of its
        one child's cumulative cost."""
        _finalize(plan, rows, self._cumulative(plan.children[0]) + own)
        return plan

    @staticmethod
    def _cumulative(child: PlanNode) -> Cost:
        return Cost(child.estimated_io_cost, child.estimated_cpu_cost)

    @staticmethod
    def _referenced_columns(bindings: dict[str, str],
                            conjuncts: list[ast.Expression],
                            select_items: list[ast.SelectItem],
                            group_exprs: tuple[ast.Expression, ...],
                            having: ast.Expression | None,
                            order_items: tuple[ast.OrderItem, ...],
                            ) -> tuple[tuple[str, str], ...]:
        sources: list[ast.Expression] = list(conjuncts)
        sources.extend(i.expression for i in select_items)
        sources.extend(group_exprs)
        if having is not None:
            sources.append(having)
        sources.extend(i.expression for i in order_items)
        seen: dict[tuple[str, str], None] = {}
        for source in sources:
            for ref in ast.referenced_columns(source):
                if ref.table in bindings:
                    seen[(bindings[ref.table], ref.name)] = None
        return tuple(seen)


def _structural_slots(stmt: ast.SelectStatement,
                      aggregated: bool) -> tuple[int, ...]:
    """Slots of the literals the plan depends on by value, not only by
    position: ORDER BY ordinals, and — above an aggregation, where
    expressions find their input columns by SQL text — every literal
    outside WHERE and ON."""
    sources = [item.expression for item in stmt.order_by
               if aggregated or isinstance(item.expression, ast.Literal)]
    if aggregated:
        sources += [item.expression for item in stmt.select_items]
        sources += stmt.group_by
        if stmt.having is not None:
            sources.append(stmt.having)
    return tuple(node.slot for source in sources
                 for node in ast.walk_expression(source)
                 if isinstance(node, ast.Literal) and node.slot is not None)

