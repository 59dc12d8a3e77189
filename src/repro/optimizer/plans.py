"""Physical plan nodes.

Plan nodes are produced by the optimizer and consumed by the executor.
Each node carries its *cumulative* estimated cost and output cardinality
and knows its output scope — the ordered ``(binding, column)`` pairs an
expression compiler resolves column references against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.sql import ast_nodes as ast

Scope = tuple[tuple[str | None, str], ...]
"""Ordered output columns as (binding, column_name); binding is None for
computed columns."""


@dataclass
class PlanNode:
    """Base class: estimated output rows and cumulative cost."""

    estimated_rows: float = field(default=0.0, init=False)
    estimated_cost: float = field(default=0.0, init=False)
    estimated_io_cost: float = field(default=0.0, init=False)
    estimated_cpu_cost: float = field(default=0.0, init=False)

    @property
    def scope(self) -> Scope:
        raise NotImplementedError

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def node_label(self) -> str:
        return type(self).__name__.removesuffix("Plan")

    def explain(self, indent: int = 0) -> str:
        """Render the plan subtree as indented text."""
        line = (f"{'  ' * indent}{self.node_label()} "
                f"(rows={self.estimated_rows:.0f} "
                f"cost={self.estimated_cost:.1f})")
        return "\n".join([line] + [child.explain(indent + 1)
                                   for child in self.children])

    def walk(self):
        """Yield this node and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def own_index(self) -> str | None:
        """The (real or virtual) index this node itself reads, if any."""
        return None

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        """What the node's own row estimate is a selectivity of (its
        filter or join keys); empty for a node that passes its input's
        estimate on or, as an aggregate, estimates a distinct count."""
        return ()

    def index_tables(self) -> dict[str, str]:
        """Each index the subtree reads, with the table it indexes: its
        own, then its children's, once (only a node with a
        ``table_name`` reads one)."""
        return {index: node.table_name  # type: ignore[attr-defined]
                for node in self.walk() if (index := node.own_index())}

    def used_indexes(self) -> tuple[str, ...]:
        """Indexes the subtree reads: its own, then its children's, once."""
        return tuple(self.index_tables())


@dataclass(frozen=True)
class KeyCondition:
    """A sargable condition on one key column: ``column <op> literal``."""

    column: str
    op: str  # "=", "<", "<=", ">", ">="
    value: Any
    slot: int | None = None
    """The literal's :attr:`~repro.sql.ast_nodes.Literal.slot`."""

    # staticcheck: hotpath
    def bound(self, params: Sequence[Any] | None) -> Any:
        """The comparison value under an execution's literal vector."""
        if params is None or self.slot is None:
            return self.value
        return params[self.slot]

    def to_sql(self) -> str:
        return f"{self.column} {self.op} {ast.Literal(self.value).to_sql()}"


@dataclass
class _TableScan(PlanNode):
    """One access path over a base table: the key conditions it matched
    (none for a full scan) and an optional pushed-down filter."""

    table_name: str
    binding: str
    columns: tuple[str, ...]
    key_conditions: tuple[KeyCondition, ...] = ()
    filter_expr: ast.Expression | None = None

    @property
    def scope(self) -> Scope:
        return tuple((self.binding, c) for c in self.columns)

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        keys = tuple(ast.ColumnRef(c.column, table=self.binding)
                     for c in self.key_conditions)
        return keys if self.filter_expr is None else keys + (self.filter_expr,)

    def _label(self, path: str, keyed: bool = True) -> str:
        """``path`` opens the label: ``SeqScan(``, ``IndexScan(i on ``."""
        label = f"{path}{self.table_name} as {self.binding})"
        if keyed:
            keys = " and ".join(c.to_sql() for c in self.key_conditions)
            label += f" key=[{keys}]"
        if self.filter_expr is not None:
            label += f" filter={self.filter_expr.to_sql()}"
        return label


@dataclass
class SeqScanPlan(_TableScan):
    """Full scan of a base table with an optional pushed-down filter."""

    def node_label(self) -> str:
        return self._label("SeqScan(", keyed=False)


@dataclass
class BTreeScanPlan(_TableScan):
    """Keyed (or full, in key order) scan of a B-Tree stored table."""

    @property
    def key_bounded(self) -> bool:
        return bool(self.key_conditions)

    def own_index(self) -> str | None:
        return f"{self.table_name}.btree" if self.key_bounded else None

    def node_label(self) -> str:
        return self._label("BTreeScan(", self.key_bounded)


@dataclass
class IndexScanPlan(_TableScan):
    """Secondary-index access: probe the index B-Tree, fetch base rows.

    ``virtual`` index scans may be *costed* but never executed; the
    what-if advisor relies on the optimizer choosing them when they
    would beat the existing paths.
    """

    index_name: str = field(kw_only=True)
    virtual: bool = False

    def own_index(self) -> str:
        return self.index_name

    def node_label(self) -> str:
        kind = "VirtualIndexScan" if self.virtual else "IndexScan"
        return self._label(f"{kind}({self.index_name} on ")


@dataclass
class _Binary(PlanNode):
    """A join of two inputs: the left side's columns, then the right's."""

    left: PlanNode
    right: PlanNode

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def scope(self) -> Scope:
        return self.left.scope + self.right.scope


@dataclass
class NestedLoopJoinPlan(_Binary):
    """Tuple-at-a-time join; the inner side is materialized and rescanned."""

    condition: ast.Expression | None = None

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        return () if self.condition is None else (self.condition,)

    def node_label(self) -> str:
        cond = self.condition.to_sql() if self.condition else "TRUE"
        return f"NestedLoopJoin on {cond}"


@dataclass
class HashJoinPlan(_Binary):
    """Equi-join: build a hash table on the right side, probe with left."""

    left_keys: tuple[ast.Expression, ...] = ()
    right_keys: tuple[ast.Expression, ...] = ()

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        return self.left_keys + self.right_keys

    def node_label(self) -> str:
        pairs = ", ".join(f"{l.to_sql()}={r.to_sql()}"
                          for l, r in zip(self.left_keys, self.right_keys))
        return f"HashJoin on [{pairs}]"


@dataclass
class IndexLookupJoinPlan(PlanNode):
    """Nested loop whose inner side is a keyed lookup per outer row.

    The inner side is a base table reached through a secondary index or
    its primary B-Tree; this is the access path that makes recommended
    indexes pay off on join workloads.
    """

    left: PlanNode
    table_name: str
    binding: str
    columns: tuple[str, ...]
    outer_keys: tuple[ast.Expression, ...] = ()
    inner_key_columns: tuple[str, ...] = ()
    via_index: str | None = None  # None means the table's primary B-Tree
    virtual: bool = False
    residual: ast.Expression | None = None

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left,)

    @property
    def scope(self) -> Scope:
        return self.left.scope + tuple((self.binding, c) for c in self.columns)

    def own_index(self) -> str:
        return self.via_index or f"{self.table_name}.btree"

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        inner = tuple(ast.ColumnRef(column, table=self.binding)
                      for column in self.inner_key_columns)
        residual = () if self.residual is None else (self.residual,)
        return self.outer_keys + inner + residual

    def node_label(self) -> str:
        path = self.own_index()
        if self.virtual:
            path += " (virtual)"
        keys = ", ".join(f"{col}={expr.to_sql()}" for col, expr
                         in zip(self.inner_key_columns, self.outer_keys))
        return (f"IndexLookupJoin -> {self.table_name} as {self.binding} "
                f"via {path} on [{keys}]")


@dataclass
class _Unary(PlanNode):
    """An operator over one input; its output columns are the input's
    unless it says otherwise."""

    child: PlanNode

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def scope(self) -> Scope:
        return self.child.scope


@dataclass
class FilterPlan(_Unary):
    condition: ast.Expression | None = None

    def estimated_on(self) -> tuple[ast.Expression, ...]:
        return () if self.condition is None else (self.condition,)

    def node_label(self) -> str:
        cond = self.condition.to_sql() if self.condition else "TRUE"
        return f"Filter {cond}"


@dataclass
class ProjectPlan(_Unary):
    expressions: tuple[ast.Expression, ...] = ()
    names: tuple[str, ...] = ()

    @property
    def scope(self) -> Scope:
        return tuple((None, name) for name in self.names)

    def node_label(self) -> str:
        return f"Project [{', '.join(self.names)}]"


@dataclass
class AggregatePlan(_Unary):
    """Hash aggregation over optional grouping expressions.

    Output scope: the group expressions first (named by their SQL text),
    then one column per aggregate call (named by its SQL text); the
    parent Project re-maps these onto the user's select list.
    """

    group_expressions: tuple[ast.Expression, ...] = ()
    aggregates: tuple[ast.FunctionCall, ...] = ()

    @property
    def scope(self) -> Scope:
        group = tuple((None, e.to_sql()) for e in self.group_expressions)
        aggs = tuple((None, a.to_sql()) for a in self.aggregates)
        return group + aggs

    def node_label(self) -> str:
        groups = ", ".join(e.to_sql() for e in self.group_expressions)
        aggs = ", ".join(a.to_sql() for a in self.aggregates)
        return f"Aggregate groups=[{groups}] aggs=[{aggs}]"


@dataclass
class SortPlan(_Unary):
    sort_keys: tuple[tuple[ast.Expression, bool], ...] = ()
    """(expression, descending) pairs."""

    def node_label(self) -> str:
        keys = ", ".join(
            f"{e.to_sql()}{' DESC' if desc else ''}"
            for e, desc in self.sort_keys
        )
        return f"Sort [{keys}]"


@dataclass
class DistinctPlan(_Unary):
    pass


@dataclass
class LimitPlan(_Unary):
    limit: int | None = None
    offset: int | None = None

    def node_label(self) -> str:
        return f"Limit {self.limit} offset {self.offset or 0}"


@dataclass
class ModifyPlan(_Unary):
    """UPDATE (``assignments``) or DELETE (None) of the rows ``child``
    — the table's access path under the statement's WHERE — produces.
    Outputs one row: the number of rows changed."""

    table_name: str
    assignments: tuple[tuple[int, ast.Expression], ...] | None = None
    """``(column position, new value over the old row)`` pairs."""

    @property
    def scope(self) -> Scope:
        return ((None, "rowcount"),)

    def node_label(self) -> str:
        verb = "Delete" if self.assignments is None else "Update"
        return f"{verb}({self.table_name})"


@dataclass
class InsertPlan(PlanNode):
    """INSERT of ``rows``; ``positions[i]`` is the column the ``i``-th
    value of a row goes to, the others stay NULL.  Outputs one row: the
    number of rows inserted."""

    table_name: str
    width: int
    positions: tuple[int, ...]
    rows: tuple[tuple[ast.Expression, ...], ...]

    @property
    def scope(self) -> Scope:
        return ((None, "rowcount"),)

    def node_label(self) -> str:
        return f"Insert({self.table_name}, {len(self.rows)} rows)"


@dataclass
class EmptySourcePlan(PlanNode):
    """A one-row, zero-column source for FROM-less SELECTs."""

    @property
    def scope(self) -> Scope:
        return ()

    def node_label(self) -> str:
        return "SingleRow"


def q_error(estimate: float, actual: int) -> float:
    """``max(e/a, a/e)``: how many times an estimate missed; an empty
    output misses only an estimate above one row."""
    if actual == 0:
        return max(estimate, 1.0)
    estimate = max(estimate, 1e-9)
    return max(estimate / actual, actual / estimate)


def node_estimates(plan: PlanNode, counted: dict[int, int]
                   ) -> list[tuple[str, str, float, int, float]]:
    """``(operator, columns, estimated rows, actual rows, miss)`` of each
    node of ``plan``, in preorder, that estimates its own rows and whose
    output and inputs ``counted`` holds (rows by node ``id``, see
    :meth:`~repro.execution.executor.Executor.execute`).  ``columns``
    names the ``table.column`` pairs the estimate rests on.  The miss is
    the node's own q-error: its estimate scaled by how far each input's
    estimate missed, so a miss is charged to the node that made it."""
    tables = {node.binding: node.table_name for node in plan.walk()
              if isinstance(node, (_TableScan, IndexLookupJoinPlan))}
    rows = []
    for node in plan.walk():
        actual = counted.get(id(node))
        inputs = node.estimated_on()
        if actual is None or not inputs:
            continue
        estimate = node.estimated_rows
        for child in node.children:
            child_actual = counted.get(id(child))
            if child_actual is None or child.estimated_rows <= 0:
                break
            estimate *= child_actual / child.estimated_rows
        else:
            columns = sorted({f"{tables[ref.table]}.{ref.name}"
                              for expr in inputs
                              for ref in ast.referenced_columns(expr)
                              if ref.table in tables})
            rows.append((type(node).__name__.removesuffix("Plan"),
                         ",".join(columns), node.estimated_rows, actual,
                         q_error(estimate, actual)))
    return rows


#: What a captured plan's text ends with, after a newline, once its
#: execution counted its nodes' rows (see :func:`format_misses`).
MISSES = "row misses:"


def format_misses(rows: Sequence[tuple[str, str, float, int, float]],
                  factor: float) -> str:
    """The line that ends a counted plan's text: :data:`MISSES`, then
    ``<columns>:<miss>`` for each of :func:`node_estimates` that missed
    by ``factor`` or more and names columns."""
    return "\n" + " ".join([MISSES] + [
        f"{columns}:{miss:.0f}" for _operator, columns, _estimate, _actual,
        miss in rows if miss >= factor and columns])


def misses_line(plan_text: str) -> str:
    """The :data:`MISSES` line ``plan_text`` ends with, its newline
    first; empty if it has none (its nodes were not counted)."""
    _head, found, tail = plan_text.rpartition("\n" + MISSES)
    return "" if not found or "\n" in tail else found + tail


def parse_misses(plan_text: str) -> tuple[str, ...] | None:
    """The ``table.column`` pairs the :data:`MISSES` line of ``plan_text``
    names, sorted; None if it has none."""
    line = misses_line(plan_text)
    if not line:
        return None
    return tuple(sorted({column for word in line.split()[2:]
                         for column in word.rpartition(":")[0].split(",")}))
