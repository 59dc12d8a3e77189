"""Expression compilation: AST -> Python closures over row tuples.

Expressions are compiled once per execution against a *scope* (the
ordered output columns of the input plan) and the execution's literal
vector (a reused plan reads each literal's slot here, not per row) and
then evaluated per row, which keeps the per-tuple overhead low enough
for the paper's 1m-statement throughput test.

NULL semantics follow SQL: comparisons and arithmetic propagate NULL,
AND/OR use three-valued logic, and predicates treat a NULL outcome as
not-satisfied.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.errors import ExecutionError
from repro.optimizer.plans import Scope
from repro.sql import ast_nodes as ast

Row = tuple
Getter = Callable[[Row], Any]


class ScopeIndex:
    """Resolves column references and named expressions to positions."""

    def __init__(self, scope: Scope,
                 params: Sequence[Any] | None = None) -> None:
        self.scope = scope
        self.params = params
        self._by_qualified: dict[str, int] = {}
        self._by_name: dict[str, list[int]] = {}
        self._by_text: dict[str, int] = {}
        for pos, (binding, name) in enumerate(scope):
            if binding is None:
                self._by_text.setdefault(name, pos)
                self._by_name.setdefault(name, []).append(pos)
            else:
                self._by_qualified.setdefault(f"{binding}.{name}", pos)
                self._by_name.setdefault(name, []).append(pos)

    def position_of_text(self, text: str) -> int | None:
        return self._by_text.get(text)

    def position_of_ref(self, ref: ast.ColumnRef) -> int:
        if ref.table is not None:
            pos = self._by_qualified.get(f"{ref.table}.{ref.name}")
            if pos is None:
                raise ExecutionError(
                    f"column {ref.table}.{ref.name} is not in scope"
                )
            return pos
        positions = self._by_name.get(ref.name, [])
        if not positions:
            raise ExecutionError(f"column {ref.name!r} is not in scope")
        if len(positions) > 1:
            raise ExecutionError(f"column {ref.name!r} is ambiguous")
        return positions[0]


@lru_cache(maxsize=4096)
def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into a compiled regex."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any] | None] = {
    "upper": lambda s: s.upper(),
    "lower": lambda s: s.lower(),
    "length": len,
    "abs": abs,
    "round": round,
    "coalesce": None,  # special-cased: needs lazy NULL handling
    "substr": lambda s, start, count=None: (
        s[start - 1 : start - 1 + count] if count is not None
        else s[start - 1 :]
    ),
}


def compile_expression(expr: ast.Expression, scope: Scope,
                       params: Sequence[Any] | None = None) -> Getter:
    """Compile ``expr`` into a callable evaluating it for one row;
    ``params`` is the execution's literal vector (None: the values the
    nodes were parsed with)."""
    return _compile(expr, ScopeIndex(scope, params))


def compile_predicate(expr: ast.Expression | None, scope: Scope,
                      params: Sequence[Any] | None = None) -> Getter:
    """Compile a boolean predicate; NULL results count as False."""
    if expr is None:
        return lambda row: True
    inner = _compile(expr, ScopeIndex(scope, params))

    def predicate(row: Row) -> bool:
        return inner(row) is True

    return predicate


def column_position(expr: ast.Expression, index: ScopeIndex) -> int | None:
    """The scope position ``expr`` merely reads, or None if it has to be
    computed.  Named sub-expressions first: this is how aggregate
    outputs and group expressions are referenced above an AggregatePlan."""
    pos = index.position_of_text(expr.to_sql())
    if pos is None and isinstance(expr, ast.ColumnRef):
        pos = index.position_of_ref(expr)
    return pos


def _compile(expr: ast.Expression, index: ScopeIndex) -> Getter:
    pos = column_position(expr, index)
    if pos is not None:
        return itemgetter(pos)
    if isinstance(expr, ast.Literal):
        value = expr.bound(index.params)
        return lambda row: value
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, index)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, index)
    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, index)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, index)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, index)
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, index)
    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
    raise ExecutionError(f"cannot compile expression {expr!r}")


def _compile_unary(expr: ast.UnaryOp, index: ScopeIndex) -> Getter:
    operand = _compile(expr.operand, index)
    if expr.op == "-":
        def negate(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ExecutionError(
                    f"cannot negate non-numeric value {value!r}")
            return -value

        return negate
    if expr.op == "not":
        def negation(row: Row) -> Any:
            value = operand(row)
            if value is None:
                return None
            return not value

        return negation
    raise ExecutionError(f"unknown unary operator {expr.op!r}")


_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def _compile_binary(expr: ast.BinaryOp, index: ScopeIndex) -> Getter:
    left = _compile(expr.left, index)
    right = _compile(expr.right, index)
    op = expr.op
    if op == "and":
        def logical_and(row: Row) -> Any:
            a = left(row)
            if a is False:
                return False
            b = right(row)
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True

        return logical_and
    if op == "or":
        def logical_or(row: Row) -> Any:
            a = left(row)
            if a is True:
                return True
            b = right(row)
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False

        return logical_or
    if op in _COMPARATORS:
        compare = _COMPARATORS[op]

        def comparison(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return compare(a, b)
            except TypeError:
                raise ExecutionError(
                    f"cannot compare {a!r} with {b!r}") from None

        return comparison
    if op in _ARITHMETIC:
        operate = _ARITHMETIC[op]

        def arithmetic(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return operate(a, b)
            except TypeError:
                raise ExecutionError(
                    f"cannot apply {op!r} to {a!r} and {b!r}") from None

        return arithmetic
    if op == "/":
        def divide(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("division by zero")
            result = a / b
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return result

        return divide
    if op == "%":
        def modulo(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if b == 0:
                raise ExecutionError("modulo by zero")
            return a % b

        return modulo
    if op == "like":
        pattern = (expr.right.bound(index.params)
                   if isinstance(expr.right, ast.Literal) else None)
        if isinstance(pattern, str):
            # A literal pattern: one regex per execution, not per row.
            matches = like_to_regex(pattern).match

            def like_literal(row: Row) -> Any:
                value = left(row)
                if value is None:
                    return None
                return matches(value) is not None

            return like_literal

        def like(row: Row) -> Any:
            value = left(row)
            pattern = right(row)
            if value is None or pattern is None:
                return None
            return like_to_regex(pattern).match(value) is not None

        return like
    raise ExecutionError(f"unknown binary operator {op!r}")


def _compile_in_list(expr: ast.InList, index: ScopeIndex) -> Getter:
    operand = _compile(expr.operand, index)
    items = [_compile(item, index) for item in expr.items]
    negated = expr.negated

    def contains(row: Row) -> Any:
        value = operand(row)
        if value is None:
            return None
        found = False
        saw_null = False
        for item in items:
            candidate = item(row)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                found = True
                break
        if found:
            return not negated
        if saw_null:
            return None
        return negated

    return contains


def _compile_between(expr: ast.Between, index: ScopeIndex) -> Getter:
    operand = _compile(expr.operand, index)
    low = _compile(expr.low, index)
    high = _compile(expr.high, index)
    negated = expr.negated

    def between(row: Row) -> Any:
        value = operand(row)
        lo = low(row)
        hi = high(row)
        if value is None or lo is None or hi is None:
            return None
        result = lo <= value <= hi
        return (not result) if negated else result

    return between


def _compile_function(expr: ast.FunctionCall, index: ScopeIndex) -> Getter:
    if expr.is_aggregate:
        raise ExecutionError(
            f"aggregate {expr.name}() used outside an aggregation context"
        )
    name = expr.name
    args = [_compile(arg, index) for arg in expr.args]
    if name == "coalesce":
        def coalesce(row: Row) -> Any:
            for arg in args:
                value = arg(row)
                if value is not None:
                    return value
            return None

        return coalesce
    function = _SCALAR_FUNCTIONS.get(name)
    if function is None:
        raise ExecutionError(f"unknown function {name!r}")

    def call(row: Row) -> Any:
        values = [arg(row) for arg in args]
        if any(value is None for value in values):
            return None
        try:
            return function(*values)
        except TypeError as exc:
            raise ExecutionError(f"{name}(): {exc}") from None

    return call


def sort_key(values: Sequence[Any]) -> tuple:
    """A total-order key over possibly-NULL heterogeneous values
    (NULLs first, as in the B-Tree)."""
    return tuple((0,) if v is None else (1, v) for v in values)
