"""Abstract syntax tree nodes for the SQL dialect.

Expressions and statements are frozen dataclasses; the optimizer and
executor treat them as immutable values.  Every expression node can
render itself back to SQL text (``to_sql``), which the monitor uses for
normalized statement texts and the analyzer for report rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

class Expression:
    """Base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    value: Any
    slot: int | None = field(default=None, compare=False)
    """Ordinal of the literal token this node was parsed from (None for
    keywords and synthesized nodes): where a plan reused for another
    text of the shape finds this literal's value."""

    # staticcheck: hotpath
    def bound(self, params: Sequence[Any] | None) -> Any:
        """The node's value under an execution's literal vector."""
        if params is None or self.slot is None:
            return self.value
        return params[self.slot]

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly qualified column reference (``t.a`` or ``a``)."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # "-" or "not"
    operand: Expression

    def to_sql(self) -> str:
        if self.op == "not":
            return f"(NOT ({self.operand.to_sql()}))"
        return f"(-({self.operand.to_sql()}))"


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # comparison, arithmetic, "and", "or"
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        op = self.op.upper() if self.op in ("and", "or", "like") else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"(({self.operand.to_sql()}) {suffix})"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def to_sql(self) -> str:
        items = ", ".join(item.to_sql() for item in self.items)
        word = "NOT IN" if self.negated else "IN"
        return f"(({self.operand.to_sql()}) {word} ({items}))"


@dataclass(frozen=True)
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (f"(({self.operand.to_sql()}) {word} "
                f"({self.low.to_sql()}) AND ({self.high.to_sql()}))")


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar or aggregate function call."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False

    AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATES

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# SELECT machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expression: Expression
    alias: str | None = None

    def output_name(self, ordinal: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        return f"col{ordinal}"


@dataclass(frozen=True)
class TableRef:
    """A base table in the FROM clause with an optional alias."""

    table_name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is referred to by in the query."""
        return self.alias or self.table_name


@dataclass(frozen=True)
class Join:
    """One inner JOIN step: ``<left> JOIN right ON condition``, or a
    cross join (``,`` or CROSS JOIN) without a condition."""

    right: TableRef
    condition: Expression | None


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectStatement:
    select_items: tuple[SelectItem, ...]
    from_table: TableRef | None
    joins: tuple[Join, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    pinned_slots: tuple[int, ...] = field(default=(), compare=False)
    """Literal tokens the parser consumed into structure (LIMIT and
    OFFSET counts, a folded unary minus): a plan is reusable only for
    texts that agree on their values."""


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------

# ``pinned_slots`` as on :class:`SelectStatement`.

@dataclass(frozen=True)
class InsertStatement:
    table_name: str
    columns: tuple[str, ...]  # empty means all, in schema order
    rows: tuple[tuple[Expression, ...], ...]
    pinned_slots: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class UpdateStatement:
    table_name: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Expression | None = None
    pinned_slots: tuple[int, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class DeleteStatement:
    table_name: str
    where: Expression | None = None
    pinned_slots: tuple[int, ...] = field(default=(), compare=False)


# --------------------------------------------------------------------------
# DDL and utility statements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # "int", "float", "varchar", "text", "bool"
    length: int = 0
    nullable: bool = True


@dataclass(frozen=True)
class CreateTableStatement:
    table_name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...] = ()
    structure: str | None = None  # "heap" / "btree"
    main_pages: int | None = None


@dataclass(frozen=True)
class DropTableStatement:
    table_name: str


@dataclass(frozen=True)
class CreateIndexStatement:
    index_name: str
    table_name: str
    columns: tuple[str, ...]
    unique: bool = False
    virtual: bool = False


@dataclass(frozen=True)
class DropIndexStatement:
    index_name: str


@dataclass(frozen=True)
class ModifyStatement:
    """Ingres' ``MODIFY <table> TO <structure>``."""

    table_name: str
    structure: str
    main_pages: int | None = None


@dataclass(frozen=True)
class CreateStatisticsStatement:
    """``CREATE STATISTICS ON t [(cols)]`` — Ingres' optimizedb."""

    table_name: str
    columns: tuple[str, ...] = ()  # empty means all columns


@dataclass(frozen=True)
class CreateTriggerStatement:
    """``CREATE TRIGGER name ON t WHEN <expr> RAISE '<message>'``.

    Fires after each row insert into ``t`` when the condition holds over
    the inserted row; the paper uses such triggers on the workload DB to
    alert the DBA (e.g. max sessions reached).
    """

    trigger_name: str
    table_name: str
    condition: Expression
    message: str


@dataclass(frozen=True)
class DropTriggerStatement:
    trigger_name: str


@dataclass(frozen=True)
class ExplainStatement:
    """``EXPLAIN <select>``: return the optimizer's plan as text."""

    statement: "SelectStatement"


@dataclass(frozen=True)
class BeginStatement:
    pass


@dataclass(frozen=True)
class CommitStatement:
    pass


@dataclass(frozen=True)
class RollbackStatement:
    pass


Statement = (
    SelectStatement | InsertStatement | UpdateStatement | DeleteStatement
    | CreateTableStatement | DropTableStatement | CreateIndexStatement
    | DropIndexStatement | ModifyStatement | CreateStatisticsStatement
    | CreateTriggerStatement | DropTriggerStatement | ExplainStatement
    | BeginStatement | CommitStatement | RollbackStatement
)


def walk_expression(expr: Expression):
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, IsNull):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, InList):
        yield from walk_expression(expr.operand)
        for item in expr.items:
            yield from walk_expression(item)
    elif isinstance(expr, Between):
        yield from walk_expression(expr.operand)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk_expression(arg)


def referenced_columns(expr: Expression) -> tuple[ColumnRef, ...]:
    """All column references inside ``expr``."""
    return tuple(node for node in walk_expression(expr)
                 if isinstance(node, ColumnRef))


def contains_aggregate(expr: Expression) -> bool:
    """True if ``expr`` contains an aggregate function call."""
    return any(isinstance(node, FunctionCall) and node.is_aggregate
               for node in walk_expression(expr))
