"""Generated filters: the batch filters of
:func:`repro.execution.evaluator.compile_filter` against a per-row
reference evaluator written here, which shares no code with the
compiler — same rows, same order, same errors and, in the engine, the
same ``tuples_processed``."""

import operator
import random
from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.schema import DataType
from repro.config import EngineConfig
from repro.engine import EngineInstance
from repro.engine.session import DmlResult
from repro.errors import ExecutionError, ReproError
from repro.execution import evaluator, joins, scan, shaping
from repro.execution.evaluator import compile_filter
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement

SCOPE = (("t", "a"), ("t", "b"), ("t", "f"), ("t", "s"))
OUTER = (("u", "x"), ("u", "y"))
TYPES = {"t": {"a": DataType.INT, "b": DataType.INT, "f": DataType.FLOAT,
               "s": DataType.VARCHAR},
         "u": {"x": DataType.INT, "y": DataType.VARCHAR}}

_NUMBERS = st.sampled_from(["0", "1", "2", "-3", "7", "0.5", "2.0", "-1.5"])
_TEXTS = st.sampled_from(["'a'", "'b'", "'it''s'", "''"])
_LITERAL = st.one_of(_NUMBERS, _TEXTS, st.just("null"))
_OP = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def _filters(columns):
    """SQL filter texts over ``columns``: conjunctions of comparisons,
    BETWEEN, IN and IS NULL, mismatched literal types among them, and
    now and then arithmetic, OR or NOT."""
    column = st.sampled_from(columns)
    operand = st.one_of(column, _LITERAL)
    atom = st.one_of(
        st.builds("{} {} {}".format, column, _OP, operand),
        st.builds("{} {} {}".format, _LITERAL, _OP, column),
        st.builds("{} {}between {} and {}".format, column,
                  st.sampled_from(["", "not "]), operand, operand),
        st.builds(lambda x, neg, items: f"{x} {neg}in ({', '.join(items)})",
                  column, st.sampled_from(["", "not "]),
                  st.lists(operand, min_size=1, max_size=3)),
        st.builds("{} is {}null".format, column,
                  st.sampled_from(["", "not "])),
        st.builds("{} + 1 > {}".format, column, _NUMBERS),
        st.builds("({} = {} or {} is null)".format, column, operand,
                  column),
        st.builds("not ({} {} {})".format, column, _OP, operand),
    )
    return st.lists(atom, min_size=1, max_size=3).map(" and ".join)


def _where(text):
    return parse_statement(f"select * from t where {text}").where


# -- the reference: SQL's row-at-a-time semantics, written out -------------------

_KINDS = {int: "number", float: "number", str: "text", bool: "bool"}
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge, "+": operator.add}


def _sql(expr, scope, row, params=None):
    """``expr``'s SQL value over ``row`` of ``scope``; an order
    comparison or sum of values of two kinds raises the engine's
    ExecutionError."""
    def value(node):
        return _sql(node, scope, row, params)

    def order(op, a, b):
        if a is None or b is None:
            return None
        if _KINDS[type(a)] != _KINDS[type(b)]:
            raise ExecutionError(f"cannot apply '+' to {a!r} and {b!r}"
                                 if op == "+" else
                                 f"cannot compare {a!r} with {b!r}")
        return _ORDER[op](a, b)

    if isinstance(expr, ast.ColumnRef):
        return row[next(i for i, (binding, name) in enumerate(scope)
                        if name == expr.name
                        and expr.table in (None, binding))]
    if isinstance(expr, ast.Literal):
        return expr.bound(params)
    if isinstance(expr, ast.UnaryOp):  # NOT
        x = value(expr.operand)
        return None if x is None else not x
    if isinstance(expr, ast.IsNull):
        return (value(expr.operand) is None) != expr.negated
    if isinstance(expr, ast.BinaryOp) and expr.op in ("and", "or"):
        stop = expr.op == "or"
        a = value(expr.left)
        if a is stop:
            return stop
        b = value(expr.right)
        if b is stop:
            return stop
        return None if a is None or b is None else not stop
    if isinstance(expr, ast.BinaryOp):
        a, b = value(expr.left), value(expr.right)
        if expr.op in ("=", "!="):
            return None if a is None or b is None \
                else (a == b) == (expr.op == "=")
        return order(expr.op, a, b)
    if isinstance(expr, ast.Between):
        inside = value(ast.BinaryOp(  # low <= x, as the engine reads it
            "and", ast.BinaryOp("<=", expr.low, expr.operand),
            ast.BinaryOp("<=", expr.operand, expr.high)))
        return None if inside is None else inside != expr.negated
    assert isinstance(expr, ast.InList), expr
    x = value(expr.operand)
    if x is None:
        return None
    items = [value(item) for item in expr.items]
    if x in [item for item in items if item is not None]:
        return not expr.negated
    return None if None in items else expr.negated


def _reference(expr, scope, params=None, outer=(), entries=False):
    """The batch filter the reference makes of ``expr``."""
    def keep(rows, outer_row):
        return [r for r in rows if expr is None or _sql(
            expr, outer + scope, outer_row + (r[1] if entries else r),
            params) is True]

    return keep


def _attempt(run):
    try:
        return run()
    except (ReproError, TypeError) as error:
        return type(error).__name__, str(error)


_INT_OR_NULL = st.one_of(st.none(), st.integers(-3, 7))
_ROWS = st.lists(st.tuples(
    _INT_OR_NULL, _INT_OR_NULL,
    st.one_of(st.none(), st.sampled_from([-1.5, 0.5, 2.0, 7.0])),
    st.one_of(st.none(), st.sampled_from(["a", "b", "it's", ""]))),
    max_size=12)


@settings(max_examples=400, deadline=None)
@given(text=_filters(["a", "b", "f", "s"]), rows=_ROWS)
def test_scan_kernel_matches_closure(text, rows):
    """The generated filter keeps what the closure :func:`_reference`
    returns keeps, and raises what it raises."""
    expr = _where(text)
    kept = _attempt(lambda: compile_filter(expr, SCOPE, None, TYPES)(
        rows, ()))
    assert kept == _attempt(lambda: _reference(expr, SCOPE)(rows, ()))
    entries = [(rowid, row) for rowid, row in enumerate(rows)]
    kept_entries = _attempt(lambda: compile_filter(
        expr, SCOPE, None, TYPES, entries=True)(entries, ()))
    assert kept_entries == _attempt(lambda: _reference(
        expr, SCOPE, entries=True)(entries, ()))


@settings(max_examples=300, deadline=None)
@given(text=_filters(["a", "b", "f", "s", "x", "y"]), rows=_ROWS,
       outer=st.tuples(_INT_OR_NULL,
                       st.one_of(st.none(), st.sampled_from(["a", "b"]))))
def test_join_kernel_matches_closure(text, rows, outer):
    """The outer row's values are the filter's locals."""
    expr = _where(text)
    kept = _attempt(lambda: compile_filter(
        expr, SCOPE, None, TYPES, OUTER)(rows, outer))
    assert kept == _attempt(lambda: _reference(
        expr, SCOPE, outer=OUTER)(rows, outer))


def _is_kernel(keep):
    return keep.__code__.co_filename == "<expression>"


@pytest.mark.parametrize("text", [
    "a = 1", "1 = a", "f < 2", "a = f", "a >= 2.5", "s != 'x'",
    "a between 1 and 2.5", "s not between 'a' and 'b'",
    "a in (1, null, 2.5)", "s not in ('a', 'b')", "a is null",
    "s is not null", "a = null", "a = 1 and s = 'x' and f is not null"])
def test_common_shapes_compile_to_kernels(text):
    assert _is_kernel(compile_filter(_where(text), SCOPE, None, TYPES))


@pytest.mark.parametrize("text", [
    "a = 'x'",  # a literal off the column's type
    "a = s",  # columns of different kinds
    "a + 1 > 2", "s like 'a%'", "a = 1 or b = 2", "not a = 1",
    "a in (1, 'x')"])
def test_other_shapes_compile_to_generated_code(text):
    assert _is_kernel(compile_filter(_where(text), SCOPE, None, TYPES))


def test_unknown_types_compile_to_generated_code():
    assert _is_kernel(compile_filter(_where("a = 1"), SCOPE))


def test_null_literal_matches_nothing():
    rows = [(None, 1, 1.0, "a"), (1, 1, 1.0, "a")]
    for text in ("a = null", "a != null", "a between null and 5",
                 "a not between null and 5", "a not in (2, null)"):
        assert compile_filter(_where(text), SCOPE, None, TYPES)(
            rows, ()) == []
    assert compile_filter(_where("a in (null, 1)"), SCOPE, None, TYPES)(
        rows, ()) == [rows[1]]


# -- in the engine --------------------------------------------------------------


@pytest.fixture(scope="module")
def kernel_engine():
    """``t`` as a heap and ``tb`` as a B-Tree, each several pages of
    the same rows; ``u`` a small join partner."""
    engine = EngineInstance(EngineConfig())
    engine.create_database("k")
    rng = random.Random(7)
    values = ", ".join(
        f"({a}, {rng.choice(['null', rng.randint(-3, 7)])}, "
        f"{rng.choice(['null', rng.choice([-1.5, 0.5, 2.0, 7.0])])}, "
        f"{rng.choice(['null', repr(rng.choice(['a', 'b', 'c']))])})"
        for a in range(300))
    with engine.connect("k") as session:
        for table in ("t", "tb"):
            session.execute(f"create table {table} (a int not null, b int, "
                            "f float, s varchar(60), primary key (a))")
            session.execute(f"insert into {table} values {values}")
        session.execute("modify tb to btree")
        session.execute("create table u (x int, y varchar(10))")
        session.execute("insert into u values (1, 'a'), (null, 'b'), "
                        "(5, null), (2, 'c'), (7, 'a')")
    return engine


@contextmanager
def _reference_filters():
    """Every operator compiled meanwhile filters through the reference
    under the batch API; yields the filters those operators bound.  A
    prepared statement compiled earlier is not compiled again: run the
    reference side in a fresh session."""
    bound = []

    def reference(expr, scope, params=None, types=None, outer=(),
                  entries=False):
        def bind(params):
            bound.append(_reference(expr, scope, params, outer, entries))
            return bound[-1]

        return bind

    with pytest.MonkeyPatch.context() as patch:
        for module in (scan, joins, shaping):
            patch.setattr(module, "prepare_filter", reference)
        yield bound


def _reference_compiled(bound, outcome):
    """The reference side bound filters (unless the statement failed
    before it compiled)."""
    failed = isinstance(outcome, tuple) and isinstance(outcome[0], str)
    return bool(bound) or failed


def _result(session, text):
    """Rows and ``tuples_processed``, a row count, or the error."""
    def run():
        result = session.execute(text)
        if isinstance(result, DmlResult):
            return result.rowcount
        return result.rows, result.metrics.tuples_processed
    return _attempt(run)


_QUERIES = st.one_of(
    st.builds("select * from {} t where {}".format,
              st.sampled_from(["t", "tb"]), _filters(["a", "b", "f", "s"])),
    st.builds("select * from {} t where {} limit {}".format,
              st.sampled_from(["t", "tb"]),
              _filters(["a", "b", "f", "s"]), st.integers(0, 4)),
    st.builds("select a, b from t limit {}".format, st.integers(0, 60)),
    st.builds("select t.a, u.x from t {}join u on {}".format,
              st.sampled_from(["", "left "]),
              _filters(["a", "b", "s", "x", "y"])),
    st.builds("update tb set b = b where {}".format,
              _filters(["a", "b", "f", "s"])),
)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_QUERIES)
def test_kernels_are_invisible_in_the_engine(kernel_engine, text):
    """Generated filters and the reference: the same rows in the same
    order, the same ``tuples_processed`` (a LIMIT counts only up to the
    row it stopped at) and the same errors, on every stored structure
    and join."""
    with kernel_engine.connect("k") as session:
        generated = _result(session, text)
    with kernel_engine.connect("k") as fresh, _reference_filters() as bound:
        assert _result(fresh, text) == generated
        assert _reference_compiled(bound, generated)


def test_limit_stops_inside_the_page(kernel_engine):
    """The scan has matched the page's first 40-odd rows when the LIMIT
    takes its fourth and stops; only those four count."""
    text = "select a from t where a >= 0 limit 3"
    with kernel_engine.connect("k") as session:
        result = session.execute(text)
    with kernel_engine.connect("k") as fresh, _reference_filters() as bound:
        assert _result(fresh, text) == (
            result.rows, result.metrics.tuples_processed)
        assert _reference_compiled(bound, result)
    assert result.rows == [(0,), (1,), (2,)]
    assert result.metrics.tuples_processed == 4 + 4 + 3  # scan, project, limit


# -- safety ---------------------------------------------------------------------


@pytest.fixture
def sources(monkeypatch):
    """Every kernel source compiled or looked up while the test runs."""
    seen = []
    real = evaluator._kernel_factory

    def recording(source):
        seen.append(source)
        return real(source)

    monkeypatch.setattr(evaluator, "_kernel_factory", recording)
    return seen


EVIL = 'x\'\' " \n__import__("os").system("true")'


def test_literal_is_data_never_code(kernel_engine, sources):
    value = EVIL.replace("''", "'")
    with kernel_engine.connect("k") as session:
        session.execute(f"insert into t values (1000, 0, 0.0, '{EVIL}')")
        try:
            assert session.execute(
                f"select a from t where s = '{EVIL}' and a >= 0"
            ).rows == [(1000,)]
            keep = compile_filter(
                ast.BinaryOp("=", ast.ColumnRef("s"), ast.Literal(value)),
                SCOPE, None, TYPES)
            assert keep([(1, 1, 1.0, value), (2, 2, 2.0, "x")], ()) == [
                (1, 1, 1.0, value)]
        finally:
            session.execute("delete from t where a = 1000")
    assert sources
    for source in sources:
        assert "import" not in source and "system" not in source
        assert '"' not in source and "'" not in source


def test_kernel_cache_stays_bounded_past_its_size():
    """10 000 distinct shapes: the cache holds at most its size and
    keeps admitting — a shape seen again after the flood is a hit, and
    every kernel still filters right."""
    factory = evaluator._kernel_factory
    factory.cache_clear()
    width = 100
    scope = tuple(("w", f"c{i}") for i in range(width))
    types = {"w": {f"c{i}": DataType.INT for i in range(width)}}
    row = tuple(range(width))
    ops = ("=", "!=", "<", "<=", ">", ">=")
    shapes = [(i, op, j) for i in range(width) for j in range(width)
              for op in ops][:10_000]
    for i, op, j in shapes:
        keep = compile_filter(ast.BinaryOp(
            op, ast.ColumnRef(f"c{i}"), ast.ColumnRef(f"c{j}")), scope,
            None, types)
        expected = _sql(ast.BinaryOp(
            op, ast.ColumnRef(f"c{i}"), ast.ColumnRef(f"c{j}")), scope, row)
        assert keep([row], ()) == ([row] if expected else [])
    info = factory.cache_info()
    assert info.misses == len(shapes)
    assert info.currsize == info.maxsize < len(shapes)
    i, op, j = shapes[-1]
    compile_filter(ast.BinaryOp(op, ast.ColumnRef(f"c{i}"),
                                ast.ColumnRef(f"c{j}")), scope, None, types)
    assert factory.cache_info().hits == info.hits + 1
