"""Expression compilation: AST -> Python closures over row tuples.

Expressions are compiled against a *scope* (the ordered output columns
of the input plan) once per plan (``prepare_*``) and bound to each
execution's literal vector (``bind(params)``): an expression that reads
no literal slot is compiled once, any other per execution, so a closure
never carries one text's literal into another text's run.  Scans and
nested-loop joins filter a batch of rows at a time
(:func:`prepare_filter`): the common filter shapes become one generated
list comprehension per batch, anything else the per-row closure under
the same batch API.

NULL semantics follow SQL: comparisons and arithmetic propagate NULL,
AND/OR use three-valued logic, and predicates treat a NULL outcome as
not-satisfied.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple, Sequence, TypeVar

from repro.catalog.schema import DataType
from repro.errors import ExecutionError
from repro.optimizer.plans import Scope
from repro.optimizer.predicates import split_conjuncts
from repro.sql import ast_nodes as ast

Row = tuple
Getter = Callable[[Row], Any]
Params = Sequence[Any] | None
"""An execution's literal vector; None: the values the nodes were
parsed with."""
BatchFilter = Callable[[Sequence[Row], Row], list]
"""``keep(rows, outer)``: the rows of one batch that pass a filter, in
order.  ``outer`` is the outer row of a nested-loop join, ``()`` for a
scan."""
ColumnTypes = Mapping[str, Mapping[str, DataType]]
"""Binding -> column name -> declared type."""
T = TypeVar("T")
Binder = Callable[[Params], T]
"""What compiling once leaves for each execution: ``bind(params)``."""


class ScopeIndex:
    """Resolves column references and named expressions to positions."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self._by_qualified: dict[str, int] = {}
        self._by_name: dict[str, list[int]] = {}
        self._by_text: dict[str, int] = {}
        for pos, (binding, name) in enumerate(scope):
            self._by_name.setdefault(name, []).append(pos)
            if binding is None:
                self._by_text.setdefault(name, pos)
            else:
                self._by_qualified.setdefault(f"{binding}.{name}", pos)

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
    regex = "".join(".*" if char == "%" else "." if char == "_"
                    else re.escape(char) for char in pattern)
    return re.compile(f"^{regex}$", re.DOTALL)


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
                       params: Params = None) -> Getter:
    """Compile ``expr`` into a callable evaluating it for one row under
    the literal vector ``params``."""
    return _compile(expr, ScopeIndex(scope), params)


def compile_predicate(expr: ast.Expression | None, scope: Scope,
                      params: Params = None) -> Getter:
    """Compile a boolean predicate; NULL results count as False."""
    return _predicate(expr, ScopeIndex(scope), params)


def _reads_slots(expr: ast.Expression) -> bool:
    return any(isinstance(node, ast.Literal) and node.slot is not None
               for node in ast.walk_expression(expr))


def _predicate(expr: ast.Expression | None, index: ScopeIndex,
               params: Params = None) -> Getter:
    if expr is None:
        return lambda row: True
    inner = _compile(expr, index, params)
    return lambda row: inner(row) is True


def prepare_expression(expr: ast.Expression | None, index: ScopeIndex,
                       predicate: bool = False) -> Binder[Getter]:
    """``expr`` compiled now if it reads no literal slot, else per
    execution: ``bind(params)`` is its getter under ``params``.  A
    ``predicate`` counts NULL as False (and no expression as True)."""
    compile_ = partial(_predicate if predicate else _compile, expr, index)
    if expr is not None and _reads_slots(expr):
        return compile_
    getter = compile_()
    return lambda params: getter


def column_position(expr: ast.Expression, index: ScopeIndex) -> int | None:
    """The scope position ``expr`` merely reads, or None if it has to be
    computed.  Named sub-expressions first: this is how aggregate
    outputs and group expressions are referenced above an AggregatePlan."""
    pos = index.position_of_text(expr.to_sql())
    if pos is None and isinstance(expr, ast.ColumnRef):
        pos = index.position_of_ref(expr)
    return pos


def _compile(expr: ast.Expression, index: ScopeIndex,
             params: Params = None) -> Getter:
    pos = column_position(expr, index)
    if pos is not None:
        return itemgetter(pos)
    if isinstance(expr, ast.Literal):
        value = expr.bound(params)
        return lambda row: value
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, index, params)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, index, params)
    if isinstance(expr, ast.IsNull):
        operand = _compile(expr.operand, index, params)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, index, params)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, index, params)
    if isinstance(expr, ast.FunctionCall):
        return _compile_function(expr, index, params)
    if isinstance(expr, ast.Star):
        raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
    raise ExecutionError(f"cannot compile expression {expr!r}")


def _compile_unary(expr: ast.UnaryOp, index: ScopeIndex,
                   params: Params) -> Getter:
    operand = _compile(expr.operand, index, params)
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


def _divide(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _modulo(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
}


def _compile_binary(expr: ast.BinaryOp, index: ScopeIndex,
                    params: Params) -> Getter:
    left = _compile(expr.left, index, params)
    right = _compile(expr.right, index, params)
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
    operate = _COMPARATORS.get(op) or _ARITHMETIC.get(op)
    if operate is not None:
        failure = "cannot compare {!r} with {!r}" if op in _COMPARATORS \
            else f"cannot apply {op!r} to {{!r}} and {{!r}}"

        def strict(row: Row) -> Any:
            """NULL in, NULL out; mismatched types are an error."""
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return operate(a, b)
            except TypeError:
                raise ExecutionError(failure.format(a, b)) from None

        return strict
    if op == "like":
        pattern = (expr.right.bound(params)
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


def _compile_in_list(expr: ast.InList, index: ScopeIndex,
                     params: Params) -> Getter:
    operand = _compile(expr.operand, index, params)
    items = [_compile(item, index, params) for item in expr.items]
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


def _compile_between(expr: ast.Between, index: ScopeIndex,
                     params: Params) -> Getter:
    operand = _compile(expr.operand, index, params)
    low = _compile(expr.low, index, params)
    high = _compile(expr.high, index, params)
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


def _compile_function(expr: ast.FunctionCall, index: ScopeIndex,
                      params: Params) -> Getter:
    if expr.is_aggregate:
        raise ExecutionError(
            f"aggregate {expr.name}() used outside an aggregation context"
        )
    name = expr.name
    args = [_compile(arg, index, params) for arg in expr.args]
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


# -- batch filters -------------------------------------------------------------

# Values of one kind compare with each other without a TypeError.
_KIND_OF_TYPE = {
    DataType.INT: "number", DataType.FLOAT: "number",
    DataType.VARCHAR: "text", DataType.TEXT: "text", DataType.BOOL: "bool",
}
_KIND_OF_VALUE = {int: "number", float: "number", str: "text", bool: "bool"}
_PY_OPERATORS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
                 ">=": ">="}


class _Ineligible(Exception):
    """The filter has a shape no kernel covers."""


class _Operand(NamedTuple):
    code: str
    kind: str | None
    """Comparable kind: None for a NULL literal, "?" if unknown."""
    per_row: bool
    """Read from the tested row, so NULL in any row; otherwise an
    argument, fixed for the whole batch."""


class _KernelSource:
    """The text of one filter's kernel, built conjunct by conjunct.

    Tested-row columns become ``r[i]``, outer-row columns the locals
    ``o0, o1, ...`` and literals the arguments ``v0, v1, ...`` of the
    factory, so the text depends on the filter's shape only.  A shape
    is eligible when all operands of each comparison are of one kind:
    then no test raises, and Python's ``and`` over the guarded tests
    keeps exactly the rows SQL's three-valued AND finds true.
    """

    def __init__(self, index: ScopeIndex, params: Params, width: int,
                 types: ColumnTypes, row: str) -> None:
        self.index = index
        self.params = params
        """Decides each literal's kind: a prepared statement's literal
        vectors all have one type per slot."""
        self.width = width
        """Leading scope positions that are the outer row's."""
        self.types = types
        self.row = row
        self.literals: list[ast.Literal] = []
        """The nodes the factory's arguments ``v0, v1, ...`` are bound
        from, per execution."""
        self.outer: list[str] = []
        self.strict: list[str] = []
        """Arguments that, NULL, leave every test of theirs unknown."""
        self.tests: list[str] = []

    def operand(self, expr: ast.Expression) -> _Operand:
        pos = column_position(expr, self.index)
        if pos is None:
            if not isinstance(expr, ast.Literal):
                raise _Ineligible
            value = expr.bound(self.params)
            name = f"v{len(self.literals)}"
            self.literals.append(expr)
            kind = None if value is None else _KIND_OF_VALUE.get(type(value))
            if value is not None and kind is None:
                raise _Ineligible
            return _Operand(name, kind, False)
        binding, column = self.index.scope[pos]
        kind = _KIND_OF_TYPE.get(
            self.types.get(binding, {}).get(column), "?")  # type: ignore[arg-type]
        if pos < self.width:
            name = f"o{len(self.outer)}"
            self.outer.append(f"{name} = o[{pos}]")
            return _Operand(name, kind, False)
        return _Operand(f"{self.row}[{pos - self.width}]", kind, True)

    def add(self, expr: ast.Expression) -> None:
        if isinstance(expr, ast.BinaryOp) and expr.op in _PY_OPERATORS:
            a, b = self.operand(expr.left), self.operand(expr.right)
            # ``x == v`` is False for a NULL x once v is known non-NULL.
            guarded = (a, b) if expr.op != "=" else \
                (a,) if a.per_row and b.per_row else ()
            self.compared(
                (a, b), guarded, f"{a.code} {_PY_OPERATORS[expr.op]} {b.code}")
        elif isinstance(expr, ast.Between):
            x, low, high = (self.operand(e)
                            for e in (expr.operand, expr.low, expr.high))
            test = f"{low.code} <= {x.code} <= {high.code}"
            self.compared((x, low, high), (x, low, high),
                          f"not ({test})" if expr.negated else test)
        elif isinstance(expr, ast.InList) and expr.items:
            x = self.operand(expr.operand)
            items = [self.operand(item) for item in expr.items]
            if expr.negated:  # any NULL item: never true
                self.compared((x, *items), (x, *items), " and ".join(
                    f"{x.code} != {item.code}" for item in items))
            else:  # NULL items never match
                self.compared((x,), (x,), "(" + " or ".join(
                    f"{x.code} == {item.code}" for item in items) + ")",
                    items)
        elif isinstance(expr, ast.IsNull):
            x = self.operand(expr.operand)
            self.tests.append(
                f"{x.code} is {'not ' if expr.negated else ''}None")
        else:
            raise _Ineligible

    def compared(self, strict: Sequence[_Operand],
                 guarded: Sequence[_Operand], test: str,
                 also: Sequence[_Operand] = ()) -> None:
        kinds = {op.kind for op in (*strict, *also) if op.kind is not None}
        if len(kinds) > 1 or "?" in kinds:
            raise _Ineligible
        self.strict += [op.code for op in strict if not op.per_row]
        self.tests += [f"{op.code} is not None"
                       for op in guarded if op.per_row]
        self.tests.append(test)

    def text(self) -> str:
        names = [f"v{i}" for i in range(len(self.literals))]
        lines = [f"def make({', '.join(names + ['fallback'])}):",
                 "    def kernel(rows, o):"]
        lines += [f"        {line}" for line in self.outer]
        if self.strict:
            lines += ["        if " + " or ".join(
                f"{name} is None" for name in self.strict) + ":",
                "            return []"]
        lines += ["        try:",
                  "            return [r for r in rows if "
                  + " and ".join(self.tests) + "]",
                  "        except TypeError:  # a value off its declared type",
                  "            return fallback(rows, o)",
                  "    return kernel"]
        return "\n".join(lines)


@lru_cache(maxsize=1024)
def _kernel_factory(source: str) -> Callable[..., BatchFilter]:
    """The one place generated code runs.  ``source`` is assembled from
    column positions, operators of ``_PY_OPERATORS`` and argument names
    only: literal values reach a kernel as arguments of the factory this
    returns, never as text, so no value can alter the code that runs,
    and every text of one filter shape shares one compiled kernel."""
    namespace: dict[str, Any] = {"__builtins__": {"TypeError": TypeError}}
    exec(compile(source, "<filter kernel>", "exec"), namespace)
    return namespace["make"]


def _keep_all(rows: Sequence[Row], outer: Row) -> list:
    return list(rows)


def _bind_keep_all(params: Params) -> BatchFilter:
    return _keep_all


def _closure_filter(expr: ast.Expression, index: ScopeIndex, width: int,
                    entries: bool, params: Params) -> BatchFilter:
    """The per-row closure under the batch API: every other shape."""
    predicate = _predicate(expr, index, params)
    if entries:
        return lambda rows, outer: [e for e in rows if predicate(e[1])]
    if width:
        return lambda rows, outer: [r for r in rows
                                    if predicate(outer + r)]
    return lambda rows, outer: [r for r in rows if predicate(r)]


# staticcheck: hotpath
def prepare_filter(expr: ast.Expression | None, scope: Scope,
                   params: Params = None, types: ColumnTypes | None = None,
                   outer: Scope = (), entries: bool = False,
                   ) -> Binder[BatchFilter]:
    """Compile the filter ``expr`` over batches of rows of ``scope``
    for every literal vector of the types ``params`` has; bind one
    with the result: ``keep = bind(params)``.

    ``types`` are the declared column types by binding; comparisons
    with a column of unknown type keep the per-row closure.  A join
    passes its outer side's scope as ``outer``: ``expr`` then sees the
    outer row's columns followed by the tested row's, as over the
    joined row.  With ``entries`` the batch holds ``(rowid, row)``
    pairs and whole pairs are kept.
    """
    if expr is None:
        return _bind_keep_all
    scope = outer + scope
    width = len(outer)
    index = ScopeIndex(scope)
    closure = partial(_closure_filter, expr, index, width, entries)
    try:
        source = _KernelSource(index, params, width, types or {},
                               "r[1]" if entries else "r")
        for conjunct in split_conjuncts(expr):
            source.add(conjunct)
    except (_Ineligible, ExecutionError):
        return closure
    make = _kernel_factory(source.text())
    literals = tuple(source.literals)

    def bind(params: Params) -> BatchFilter:
        def fallback(rows: Sequence[Row], outer_row: Row) -> list:
            return closure(params)(rows, outer_row)

        return make(*[literal.bound(params) for literal in literals],
                    fallback)

    return bind


def compile_filter(expr: ast.Expression | None, scope: Scope,
                   params: Params = None, types: ColumnTypes | None = None,
                   outer: Scope = (), entries: bool = False) -> BatchFilter:
    """:func:`prepare_filter` and bind ``params`` in one call."""
    return prepare_filter(expr, scope, params, types, outer, entries)(params)


def sort_key(values: Sequence[Any]) -> tuple:
    """A total-order key over possibly-NULL heterogeneous values
    (NULLs first, as in the B-Tree)."""
    return tuple((0,) if v is None else (1, v) for v in values)
