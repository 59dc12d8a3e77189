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

    def used_indexes(self) -> tuple[str, ...]:
        """Indexes the subtree reads: its own, then its children's, once."""
        own = self.own_index()
        names = [own] if own else []
        names += [n for child in self.children for n in child.used_indexes()]
        return tuple(dict.fromkeys(names))


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
class HashScanPlan(_TableScan):
    """Equality probe into a HASH-structured table (full key only)."""

    def own_index(self) -> str:
        return f"{self.table_name}.hash"

    def node_label(self) -> str:
        return self._label("HashScan(")


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

    def node_label(self) -> str:
        cond = self.condition.to_sql() if self.condition else "TRUE"
        return f"NestedLoopJoin on {cond}"


def _pairs(left_keys: tuple[ast.Expression, ...],
           right_keys: tuple[ast.Expression, ...]) -> str:
    return ", ".join(f"{l.to_sql()}={r.to_sql()}"
                     for l, r in zip(left_keys, right_keys))


@dataclass
class HashJoinPlan(_Binary):
    """Equi-join: build a hash table on the right side, probe with left."""

    left_keys: tuple[ast.Expression, ...] = ()
    right_keys: tuple[ast.Expression, ...] = ()
    residual: ast.Expression | None = None

    def node_label(self) -> str:
        return f"HashJoin on [{_pairs(self.left_keys, self.right_keys)}]"


@dataclass
class LeftOuterJoinPlan(_Binary):
    """LEFT OUTER JOIN: every left row survives; unmatched rows are
    padded with NULLs on the right side.

    When ``left_keys``/``right_keys`` are set the executor matches via a
    hash table; otherwise it evaluates ``condition`` per pair.
    """

    condition: ast.Expression | None = None
    left_keys: tuple[ast.Expression, ...] = ()
    right_keys: tuple[ast.Expression, ...] = ()
    residual: ast.Expression | None = None

    def node_label(self) -> str:
        if self.left_keys:
            return (f"LeftOuterJoin (hash) on "
                    f"[{_pairs(self.left_keys, self.right_keys)}]")
        cond = self.condition.to_sql() if self.condition else "TRUE"
        return f"LeftOuterJoin on {cond}"


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
