"""Single-table access path selection.

For one FROM binding with its pushed-down predicates, enumerate:

* a sequential scan (always available),
* a keyed B-Tree range scan when the table is stored as a B-Tree and
  the predicates bound a prefix of its key,
* a secondary index scan for every matching real index — and, in
  what-if mode, every matching *virtual* index,

cost each with the engine's cost model and return the cheapest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.optimizer.cost_model import Cost, CostModel
from repro.optimizer.interfaces import IndexInfo, TableInfo
from repro.catalog.schema import StorageStructure
from repro.optimizer.plans import (
    BTreeScanPlan,
    IndexScanPlan,
    KeyCondition,
    PlanNode,
    SeqScanPlan,
)
from repro.optimizer.predicates import conjoin
from repro.optimizer.selectivity import (
    SelectivityEstimator,
    StatsResolver,
    _literal_value,
    _NOT_A_LITERAL,
)
from repro.sql import ast_nodes as ast

_RANGE_OPS = {"<", "<=", ">", ">="}
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@dataclass
class _Sarg:
    """A sargable predicate bound to one column of this binding."""

    column: str
    op: str
    value: object
    source_index: int  # position in the predicate list (for consumption)
    slot: int | None = None  # of the literal the value came from


def _key_value(expr: ast.Expression) -> object:
    """The literal a key can be probed with.  Not NULL: a comparison
    with it is never true, while a probe would find the NULL keys — it
    stays a filter, which rejects every row."""
    value = _literal_value(expr)
    return _NOT_A_LITERAL if value is None else value


def _extract_sargs(binding: str,
                   predicates: list[ast.Expression]) -> list[_Sarg]:
    sargs: list[_Sarg] = []
    for i, predicate in enumerate(predicates):
        if isinstance(predicate, ast.Between):
            operand = predicate.operand
            lo = _key_value(predicate.low)
            hi = _key_value(predicate.high)
            if (isinstance(operand, ast.ColumnRef) and not predicate.negated
                    and lo is not _NOT_A_LITERAL and hi is not _NOT_A_LITERAL):
                sargs.append(_Sarg(operand.name, ">=", lo, i,
                                   _slot(predicate.low)))
                sargs.append(_Sarg(operand.name, "<=", hi, i,
                                   _slot(predicate.high)))
            continue
        if not isinstance(predicate, ast.BinaryOp):
            continue
        if predicate.op not in _RANGE_OPS and predicate.op != "=":
            continue
        left, right = predicate.left, predicate.right
        if isinstance(left, ast.ColumnRef):
            value = _key_value(right)
            if value is not _NOT_A_LITERAL:
                sargs.append(_Sarg(left.name, predicate.op, value, i,
                                   _slot(right)))
                continue
        if isinstance(right, ast.ColumnRef):
            value = _key_value(left)
            if value is not _NOT_A_LITERAL:
                sargs.append(_Sarg(right.name, _FLIP[predicate.op], value, i,
                                   _slot(left)))
    return sargs


def _slot(expr: ast.Expression) -> int | None:
    return expr.slot if isinstance(expr, ast.Literal) else None


@dataclass
class KeyMatch:
    """Sargable conditions matched against a key column sequence."""

    conditions: tuple[KeyCondition, ...]
    consumed: frozenset[int]
    equality_columns: int
    has_range: bool

    @property
    def matched(self) -> bool:
        return bool(self.conditions)


def match_key_prefix(key_columns: tuple[str, ...],
                     sargs: list[_Sarg]) -> KeyMatch:
    """Match equality conditions on leading key columns, then at most
    one range-bounded column — the classic B-Tree prefix rule."""
    conditions: list[KeyCondition] = []
    consumed: set[int] = set()
    eq_columns = 0
    has_range = False
    for column in key_columns:
        eq = next((s for s in sargs if s.column == column and s.op == "="),
                  None)
        if eq is not None:
            conditions.append(KeyCondition(column, "=", eq.value, eq.slot))
            consumed.add(eq.source_index)
            eq_columns += 1
            continue
        ranges = [s for s in sargs
                  if s.column == column and s.op in _RANGE_OPS]
        for sarg in ranges[:2]:
            conditions.append(KeyCondition(column, sarg.op, sarg.value,
                                           sarg.slot))
            consumed.add(sarg.source_index)
            has_range = True
        break
    return KeyMatch(tuple(conditions), frozenset(consumed),
                    eq_columns, has_range)


class AccessPathSelector:
    """Chooses the cheapest access path for one binding."""

    def __init__(self, cost_model: CostModel,
                 estimator: SelectivityEstimator) -> None:
        self._cost_model = cost_model
        self._estimator = estimator

    def best_path(self, binding: str, table: TableInfo,
                  indexes: tuple[IndexInfo, ...],
                  predicates: list[ast.Expression],
                  resolve: StatsResolver) -> PlanNode:
        """Return the cheapest plan scanning ``table`` under ``predicates``."""
        candidates = self.candidate_paths(binding, table, indexes,
                                          predicates, resolve)
        return min(candidates, key=lambda p: p.estimated_cost)

    def candidate_paths(self, binding: str, table: TableInfo,
                        indexes: tuple[IndexInfo, ...],
                        predicates: list[ast.Expression],
                        resolve: StatsResolver) -> list[PlanNode]:
        columns = table.schema.column_names
        sargs = _extract_sargs(binding, predicates)
        total_selectivity = self._combined_selectivity(predicates, resolve)
        out_rows = max(0.0, table.row_count * total_selectivity)
        candidates: list[PlanNode] = [
            self._seq_scan(binding, table, columns, predicates, out_rows)
        ]
        if table.key_columns and table.structure is StorageStructure.BTREE:
            plan = self._btree_scan(binding, table, columns, predicates,
                                    sargs, out_rows, resolve)
            if plan is not None:
                candidates.append(plan)
        for index in indexes:
            plan = self._index_scan(binding, table, index, columns,
                                    predicates, sargs, out_rows, resolve)
            if plan is not None:
                candidates.append(plan)
        return candidates

    # -- individual paths ---------------------------------------------------

    def _seq_scan(self, binding: str, table: TableInfo,
                  columns: tuple[str, ...],
                  predicates: list[ast.Expression],
                  out_rows: float) -> SeqScanPlan:
        plan = SeqScanPlan(table.name, binding, columns, (),
                           conjoin(predicates))
        cost = self._cost_model.seq_scan(
            pages=max(1, table.page_count),
            overflow_pages=table.overflow_pages,
            rows=table.row_count,
        ) + self._cost_model.filter(table.row_count, max(1, len(predicates)))
        _finalize(plan, out_rows, cost)
        return plan

    def _btree_scan(self, binding: str, table: TableInfo,
                    columns: tuple[str, ...],
                    predicates: list[ast.Expression],
                    sargs: list[_Sarg], out_rows: float,
                    resolve: StatsResolver) -> BTreeScanPlan | None:
        match = match_key_prefix(table.key_columns, sargs)
        if not match.matched:
            return None
        key_selectivity = self._key_selectivity(binding, match, resolve)
        residual = [p for i, p in enumerate(predicates)
                    if i not in match.consumed]
        plan = BTreeScanPlan(table.name, binding, columns, match.conditions,
                             conjoin(residual))
        cost = self._cost_model.btree_range_scan(
            height=table.btree_height,
            leaf_pages=max(1, table.btree_leaf_pages),
            selectivity=key_selectivity,
            rows=table.row_count,
        ) + self._cost_model.filter(table.row_count * key_selectivity,
                                    max(1, len(residual)))
        _finalize(plan, out_rows, cost)
        return plan

    def _index_scan(self, binding: str, table: TableInfo, index: IndexInfo,
                    columns: tuple[str, ...],
                    predicates: list[ast.Expression],
                    sargs: list[_Sarg], out_rows: float,
                    resolve: StatsResolver) -> IndexScanPlan | None:
        match = match_key_prefix(index.definition.column_names, sargs)
        if not match.matched:
            return None
        key_selectivity = self._key_selectivity(binding, match, resolve)
        residual = [p for i, p in enumerate(predicates)
                    if i not in match.consumed]
        plan = IndexScanPlan(table.name, binding, columns, match.conditions,
                             conjoin(residual), index.is_virtual,
                             index_name=index.definition.name)
        cost = self._cost_model.index_scan(
            index_height=index.height,
            index_leaf_pages=max(1, index.leaf_pages),
            selectivity=key_selectivity,
            table_rows=table.row_count,
            fetch_height=table.fetch_height,
        ) + self._cost_model.filter(table.row_count * key_selectivity,
                                    max(1, len(residual)))
        _finalize(plan, out_rows, cost)
        return plan

    # -- selectivity helpers ---------------------------------------------------

    def _combined_selectivity(self, predicates: list[ast.Expression],
                              resolve: StatsResolver) -> float:
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self._estimator.selectivity(predicate, resolve)
        return selectivity

    def _key_selectivity(self, binding: str, match: KeyMatch,
                         resolve: StatsResolver) -> float:
        selectivity = 1.0
        range_lo: KeyCondition | None = None
        range_hi: KeyCondition | None = None
        for condition in match.conditions:
            ref = ast.ColumnRef(condition.column, table=binding)
            if condition.op == "=":
                selectivity *= self._estimator.equality_selectivity(
                    ref, condition.value, resolve)
            elif condition.op in (">", ">="):
                range_lo = condition
            else:
                range_hi = condition
        if range_lo is not None or range_hi is not None:
            column = (range_lo or range_hi).column
            ref = ast.ColumnRef(column, table=binding)
            selectivity *= self._estimator.range_selectivity(
                ref,
                range_lo.value if range_lo else None,
                range_hi.value if range_hi else None,
                resolve,
                lo_inclusive=(range_lo.op == ">=" if range_lo else True),
                hi_inclusive=(range_hi.op == "<=" if range_hi else True),
            )
        return max(1e-9, min(1.0, selectivity))


def _finalize(plan: PlanNode, rows: float, cost: Cost) -> None:
    """Stamp estimates onto a plan node."""
    plan.estimated_rows = rows
    plan.estimated_cost = cost.total
    plan.estimated_io_cost = cost.io
    plan.estimated_cpu_cost = cost.cpu
