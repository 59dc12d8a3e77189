"""Expression compilation: AST -> generated Python code over row tuples.

One generator writes every expression's code against a *scope* (the
ordered output columns of the input plan), once per plan (``prepare_*``),
and binds it to each execution's literals (``bind(params)``): as a batch
filter ``keep(rows, outer)`` or as a row getter.  NULL follows SQL."""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from itertools import count
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple, Sequence, TypeVar

from repro.catalog.schema import DataType
from repro.errors import ExecutionError
from repro.optimizer.plans import Scope
from repro.sql import ast_nodes as ast

Row = tuple
Getter = Callable[[Row], Any]
Params = Sequence[Any] | None
"""An execution's literal vector; None: the values the nodes were
parsed with."""
BatchFilter = Callable[[Sequence[Row], Row], list]
"""``keep(rows, outer)``: the rows of one batch that pass a filter, in
order; ``outer`` is a nested-loop join's outer row, ``()`` for a scan."""
ColumnTypes = Mapping[str, Mapping[str, DataType]]
T = TypeVar("T")
Binder = Callable[[Params], T]
"""What compiling once leaves for each execution: ``bind(params)``."""


class ScopeIndex:
    """A scope's positions by the text of a named expression or of a
    qualified column (the named expression first), and by column name."""

    def __init__(self, scope: Scope) -> None:
        self.scope = scope
        self.by_name: dict[str, list[int]] = {}
        named: dict[str, int] = {}
        qualified: dict[str, int] = {}
        for pos, (binding, name) in enumerate(scope):
            self.by_name.setdefault(name, []).append(pos)
            if binding is None:
                named.setdefault(name, pos)
            else:
                qualified.setdefault(f"{binding}.{name}", pos)
        self.by_text = {**qualified, **named}


def column_position(expr: ast.Expression, index: ScopeIndex) -> int | None:
    """The scope position ``expr`` merely reads, or None if it has to be
    computed.  Named sub-expressions first: this is how aggregate
    outputs and group expressions are referenced above an AggregatePlan."""
    pos = index.by_text.get(expr.to_sql())
    if pos is not None or not isinstance(expr, ast.ColumnRef):
        return pos
    positions = [] if expr.table else index.by_name.get(expr.name, [])
    if len(positions) != 1:
        problem = "ambiguous" if positions else "not in scope"
        raise ExecutionError(f"column {expr.to_sql()!r} is {problem}")
    return positions[0]


@lru_cache(maxsize=4096)
def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Translate a SQL LIKE pattern into a compiled regex."""
    regex = "".join(".*" if char == "%" else "." if char == "_"
                    else re.escape(char) for char in pattern)
    return re.compile(f"^{regex}$", re.DOTALL)


# -- what generated code calls for an operation it does not inline -------------

def _strict(operate: Callable[..., Any], failure: str) -> Callable[..., Any]:
    def strict(*values: Any) -> Any:
        """NULL in, NULL out; mismatched types are an error."""
        if None in values:
            return None
        try:
            return operate(*values)
        except TypeError:
            raise ExecutionError(failure.format(*values)) from None

    return strict


def _numeric(operate: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def arithmetic(a: Any, b: Any) -> Any:
        """SQL arithmetic: numbers only, never text or a boolean."""
        if type(a) not in (int, float) or type(b) not in (int, float):
            raise TypeError
        return operate(a, b)

    arithmetic.__name__ = operate.__name__
    return arithmetic


def _divide(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("division by zero")
    exact = isinstance(a, int) and isinstance(b, int) and a % b == 0
    return a // b if exact else a / b


def _modulo(a: Any, b: Any) -> Any:
    if b == 0:
        raise ExecutionError("modulo by zero")
    return a % b


def _substr(text: str, start: int, length: int | None = None) -> str:
    return text[start - 1:None if length is None else start - 1 + length]


def _negate(value: Any) -> Any:
    if isinstance(value, bool):  # a number to Python, not to SQL
        raise TypeError
    return -value


_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge, "+": _numeric(operator.add),
    "-": _numeric(operator.sub), "*": _numeric(operator.mul),
    "/": _numeric(_divide), "%": _numeric(_modulo)}
_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "upper": str.upper, "lower": str.lower, "length": len, "abs": abs,
    "round": round, "substr": _substr,
}  # and coalesce, generated inline: it evaluates its arguments lazily
_HELPERS: dict[str, Any] = {
    **{operate.__name__: _strict(operate, "cannot compare {!r} with {!r}"
                                 if op in _COMPARISONS
                                 else f"cannot apply {op!r} to {{!r}} and {{!r}}")
       for op, operate in _OPERATORS.items()},
    **{f"fn_{name}": _strict(function, f"{name}() cannot take {{!r}}")
       for name, function in _FUNCTIONS.items()},
    "neg": _strict(_negate, "cannot negate non-numeric value {!r}"),
    "matcher": _strict(lambda pattern: like_to_regex(pattern).match,
                       "LIKE pattern {!r} is not text"),
    "like": _strict(lambda value, match: match(value) is not None,
                    "cannot apply LIKE to {!r}"),
}


# -- the generator ---------------------------------------------------------------

# Values of one kind compare with each other without a TypeError.
_KIND_OF_TYPE = {DataType.INT: "number", DataType.FLOAT: "number",
                 DataType.VARCHAR: "text", DataType.TEXT: "text",
                 DataType.BOOL: "bool"}
_KIND_OF_VALUE = {int: "number", float: "number", str: "text", bool: "bool"}


class _Code(NamedTuple):
    """Code for an expression's SQL value; ``safe`` if no row makes it
    raise.  A ``leaf`` (a column or a literal: cheap to read twice) has
    a comparable ``kind`` ("?": unknown, None: NULL), is ``fixed`` if one
    value serves the batch (a literal or an outer-row column), and is
    ``nullable`` unless a non-NULL literal.  ``inline`` is true exactly
    where the value is TRUE, once the ``needs`` are known non-NULL."""

    text: str
    safe: bool
    kind: str | None = "?"
    fixed: bool = False
    leaf: bool = False
    nullable: bool = True
    inline: str | None = None
    needs: tuple[str, ...] = ()

    @property
    def test(self) -> str:
        return self.inline or f"{self.text} is True"


def _inlined(op: str, *codes: _Code) -> bool:
    """Whether ``op`` over ``codes`` is a Python operator no row makes
    raise: ``=`` or ``!=`` over leaves, or leaves of one kind."""
    kinds = {code.kind for code in codes} - {None}
    return all(code.leaf for code in codes) and (op in ("=", "!=") or (
        op in _COMPARISONS and len(kinds) <= 1 and "?" not in kinds))


def _tested(text: str, test: str, *operands: _Code,
            guard: Sequence[_Code] | None = None) -> _Code:
    """``text`` with the inlined ``test``, valid once the ``operands``
    (per row: only those of ``guard``, if given) are non-NULL."""
    return _Code(text, True, inline=" and ".join(
        [f"{op.text} is not None" for op in (
            operands if guard is None else guard)
         if op.nullable and not op.fixed] + [test]),
        needs=tuple(op.text for op in operands if op.nullable and op.fixed))


class _Source:
    """One expression's code: tested-row columns read ``r[i]``, outer-row
    columns ``o0, o1, ...`` and literals ``v0, v1, ...`` (arguments)."""

    def __init__(self, index: ScopeIndex, params: Params,
                 types: ColumnTypes | None = None, width: int = 0,
                 row: str = "r") -> None:
        self.index = index
        self.params = params  # a literal's kind: one type per slot
        self.types = types or {}
        self.width = width  # leading scope positions: the outer row's
        self.row = row
        self.literals: list[ast.Literal] = []  # bound to ``v0, v1, ...``
        self.bound: list[str] = []  # lines run once per binding
        self.outer: list[str] = []
        self.temps = count()

    def code(self, expr: ast.Expression) -> _Code:
        pos = column_position(expr, self.index)
        if pos is not None:
            binding, column = self.index.scope[pos]
            kind = _KIND_OF_TYPE.get(
                self.types.get(binding, {}).get(column), "?")  # type: ignore[arg-type]
            if pos >= self.width:
                return _Code(f"{self.row}[{pos - self.width}]", True, kind,
                             leaf=True)
            self.outer.append(f"o{len(self.outer)} = o[{pos}]")
            return _Code(f"o{len(self.outer) - 1}", True, kind, fixed=True,
                         leaf=True)
        if isinstance(expr, ast.Literal):
            value = expr.bound(self.params)
            self.literals.append(expr)
            kind = None if value is None else _KIND_OF_VALUE.get(type(value), "?")
            return _Code(f"v{len(self.literals) - 1}", True, kind, fixed=True,
                         leaf=True, nullable=value is None)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("and", "or"):
            return self.logical(expr.op, self.terms(expr, expr.op))
        if isinstance(expr, ast.BinaryOp) and expr.op == "like":
            return self.like(self.code(expr.left), self.code(expr.right))
        if isinstance(expr, ast.BinaryOp) and expr.op in _OPERATORS:
            return self.binary(expr.op, self.code(expr.left),
                               self.code(expr.right))
        if isinstance(expr, ast.UnaryOp) and expr.op == "-":
            return _Code(f"neg({self.code(expr.operand).text})", False)
        if isinstance(expr, ast.UnaryOp) and expr.op == "not":
            return self.negation(self.code(expr.operand))
        if isinstance(expr, ast.IsNull):
            x = self.code(expr.operand)
            text = f"({x.text} is {'not ' * expr.negated}None)"
            return _Code(text, x.safe, inline=text)
        if isinstance(expr, ast.InList):  # an OR of =, or an AND of !=
            x = self.code(expr.operand)
            op, joint = ("!=", "and") if expr.negated else ("=", "or")
            return self.logical(joint, [self.binary(op, x, self.code(item))
                                        for item in expr.items])
        if isinstance(expr, ast.Between):  # low <= x AND x <= high
            x, low, high = map(self.code, (expr.operand, expr.low, expr.high))
            inside = self.logical("and", [self.binary("<=", low, x),
                                          self.binary("<=", x, high)])
            if expr.negated or not _inlined("<", x, low, high):
                return self.negation(inside) if expr.negated else inside
            return _tested(inside.text, f"{low.text} <= {x.text} <= "
                           f"{high.text}", x, low, high)
        if isinstance(expr, ast.FunctionCall):
            return self.function(expr)
        if isinstance(expr, ast.Star):
            raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
        raise ExecutionError(f"cannot compile expression {expr!r}")

    def terms(self, expr: ast.Expression, op: str) -> list[_Code]:
        """The codes of a chain of ``op`` (AND or OR), in order."""
        terms: list[ast.Expression] = []
        while isinstance(expr, ast.BinaryOp) and expr.op == op \
                and column_position(expr, self.index) is None:
            terms.append(expr.right)
            expr = expr.left
        return [self.code(term) for term in (expr, *reversed(terms))]

    def logical(self, op: str, terms: list[_Code]) -> _Code:
        """SQL's AND/OR: the terms run in order until one decides."""
        stop, other = ("False", "True") if op == "and" else ("True", "False")
        names = [f"t{next(self.temps)}" for _ in terms]
        code = _Code(f"({stop} if " + " or ".join(
            f"({t} := {term.text}) is {stop}" for t, term in zip(names, terms))
            + " else None if " + " or ".join(f"{t} is None" for t in names)
            + f" else {other})",
            all(term.safe for term in terms))
        if op == "and":
            return code._replace(inline=" and ".join(t.test for t in terms),
                                 needs=sum((t.needs for t in terms), ()))
        if any(term.needs for term in terms):  # not hoisted out of an OR
            return code
        return code._replace(
            inline="(" + " or ".join(t.test for t in terms) + ")")

    def negation(self, x: _Code) -> _Code:
        t = f"t{next(self.temps)}"
        return _Code(f"(None if ({t} := {x.text}) is None else not {t})",
                     x.safe, inline=f"{x.text} is False")

    @staticmethod
    def binary(op: str, a: _Code, b: _Code) -> _Code:
        if not _inlined(op, a, b):  # e.g. ``lt(r[0], v0)``
            return _Code(f"{_OPERATORS[op].__name__}({a.text}, {b.text})", False)
        test = f"{a.text} {'==' if op == '=' else op} {b.text}"
        nulls = " or ".join(f"{x.text} is None" for x in (a, b) if x.nullable)
        # ``x == y`` is False for a NULL x once y is known non-NULL.
        return _tested(f"(None if {nulls} else {test})" if nulls
                       else f"({test})", test, a, b, guard=None if op != "="
                       else () if a.fixed or b.fixed else (a,))

    def like(self, x: _Code, pattern: _Code) -> _Code:
        if pattern.nullable or pattern.kind != "text":  # per row
            return _Code(f"like({x.text}, matcher({pattern.text}))", False)
        match = f"m{len(self.bound)}"  # a literal pattern's regex
        self.bound.append(f"{match} = matcher({pattern.text})")
        if x.kind != "text" or not x.leaf:
            return _Code(f"like({x.text}, {match})", False)
        return _tested(f"like({x.text}, {match})", f"{match}({x.text})", x)

    def function(self, expr: ast.FunctionCall) -> _Code:
        if expr.is_aggregate:
            raise ExecutionError(
                f"aggregate {expr.name}() used outside an aggregation context")
        if expr.name != "coalesce" and expr.name not in _FUNCTIONS:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [self.code(arg) for arg in expr.args]
        if expr.name != "coalesce":
            return _Code(f"fn_{expr.name}({', '.join(a.text for a in args)})",
                         False)
        text = "None"  # the first non-NULL argument; no later one runs
        for arg in reversed(args):
            t = f"t{next(self.temps)}"
            text = f"({t} if ({t} := {arg.text}) is not None else {text})"
        return _Code(text, all(arg.safe for arg in args))

    def factory(self, body: list[str]) -> Binder[Any]:
        """``bind(params)``: what ``body`` returns, given the literals."""
        names = ", ".join(f"v{i}" for i in range(len(self.literals)))
        make = _kernel_factory("\n".join(
            [f"def make({names}):"]
            + [f"    {line}" for line in self.bound + body]))
        literals = tuple(self.literals)
        if not literals:
            made = make()
            return lambda params: made

        # staticcheck: hotpath
        def bind(params: Params) -> Any:
            return make(*[literal.bound(params) for literal in literals])

        return bind


@lru_cache(maxsize=1024)
def _kernel_factory(source: str) -> Callable[..., Any]:
    """The one place generated code runs.  ``source`` holds column
    positions, Python operators and the names of arguments and of
    ``_HELPERS`` only, and sees no builtins: literal values reach the
    code as arguments of the ``make`` this returns, never as text, so no
    value can alter the code that runs, and one shape compiles once."""
    namespace: dict[str, Any] = {"__builtins__": {}, **_HELPERS}
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["make"]


def prepare_expression(expr: ast.Expression, index: ScopeIndex,
                       params: Params = None) -> Binder[Getter]:
    """``expr`` compiled now for every literal vector of the types
    ``params`` has: ``bind(params)`` is its getter under ``params``."""
    pos = column_position(expr, index)
    if pos is not None:
        getter = itemgetter(pos)
        return lambda params: getter
    source = _Source(index, params)
    return source.factory([f"return lambda r: {source.code(expr).text}"])


def compile_expression(expr: ast.Expression, scope: Scope,
                       params: Params = None) -> Getter:
    """``expr``'s getter under the literal vector ``params``."""
    return prepare_expression(expr, ScopeIndex(scope), params)(params)


def _keep_all(rows: Sequence[Row], outer: Row) -> list:
    return list(rows)


def prepare_filter(expr: ast.Expression | None, scope: Scope,
                   params: Params = None, types: ColumnTypes | None = None,
                   outer: Scope = (), entries: bool = False,
                   ) -> Binder[BatchFilter]:
    """The filter ``expr`` over batches of rows of ``scope``, compiled
    for every literal vector of the types ``params`` has: bind one with
    ``keep = bind(params)``.  ``types`` are the declared column types by
    binding.  A join passes its outer side's scope as ``outer``: ``expr``
    then sees the outer row's columns followed by the tested row's.
    With ``entries`` the batch holds ``(rowid, row)`` pairs, kept whole."""
    if expr is None:
        return lambda params: _keep_all
    source = _Source(ScopeIndex(outer + scope), params, types, len(outer),
                     "r[1]" if entries else "r")
    code = source.code(expr)
    # Unsafe, SQL's evaluation order decides which error shows.
    test = code.test if code.safe else f"{code.text} is True"
    body = ["def keep(rows, o):"] + [f"    {line}" for line in source.outer]
    if code.safe and code.needs:  # NULL, they leave every row unknown
        body += ["    if " + " or ".join(
            f"{name} is None" for name in code.needs) + ":",
            "        return []"]
    return source.factory(
        body + [f"    return [r for r in rows if {test}]", "return keep"])


def compile_filter(expr: ast.Expression | None, scope: Scope,
                   params: Params = None, types: ColumnTypes | None = None,
                   outer: Scope = (), entries: bool = False) -> BatchFilter:
    """:func:`prepare_filter` and bind ``params`` in one call."""
    return prepare_filter(expr, scope, params, types, outer, entries)(params)


def compile_predicate(expr: ast.Expression | None, scope: Scope,
                      params: Params = None,
                      types: ColumnTypes | None = None) -> Getter:
    """A predicate over one row, through the batch filter: NULL is False."""
    keep = compile_filter(expr, scope, params, types)
    return lambda row: bool(keep((row,), ()))


def sort_key(values: Sequence[Any]) -> tuple:
    """A total-order key over possibly-NULL heterogeneous values
    (NULLs first, as in the B-Tree)."""
    return tuple((0,) if v is None else (1, v) for v in values)
