"""Predicate kernels: the batch filters of
:func:`repro.execution.evaluator.compile_filter` against the per-row
closure they stand in for — same rows, same order, same errors and, in
the engine, the same ``tuples_processed``."""

import random
from contextlib import contextmanager
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.catalog.schema import DataType
from repro.config import EngineConfig
from repro.engine import EngineInstance
from repro.engine.session import DmlResult
from repro.errors import ReproError
from repro.execution import evaluator, joins, scan
from repro.execution.evaluator import (compile_filter, compile_predicate,
                                      prepare_filter)
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
    """SQL filter texts over ``columns``: conjunctions of the kernel
    shapes, mismatched literal types among them, and now and then a
    shape no kernel covers."""
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
        st.builds("{} + 1 > {}".format, column, _NUMBERS),  # no kernel
        st.builds("({} = {} or {} is null)".format, column, operand,
                  column),  # no kernel
    )
    return st.lists(atom, min_size=1, max_size=3).map(" and ".join)


def _where(text):
    return parse_statement(f"select * from t where {text}").where


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
    expr = _where(text)
    kept = _attempt(lambda: compile_filter(expr, SCOPE, None, TYPES)(
        rows, ()))
    reference = _attempt(lambda: [
        row for row in rows if compile_predicate(expr, SCOPE)(row)])
    assert kept == reference
    entries = [(rowid, row) for rowid, row in enumerate(rows)]
    kept_entries = _attempt(lambda: compile_filter(
        expr, SCOPE, None, TYPES, entries=True)(entries, ()))
    assert kept_entries == _attempt(lambda: [
        entry for entry in entries
        if compile_predicate(expr, SCOPE)(entry[1])])


@settings(max_examples=300, deadline=None)
@given(text=_filters(["a", "b", "f", "s", "x", "y"]), rows=_ROWS,
       outer=st.tuples(_INT_OR_NULL,
                       st.one_of(st.none(), st.sampled_from(["a", "b"]))))
def test_join_kernel_matches_closure(text, rows, outer):
    """The outer row's values are the kernel's arguments."""
    expr = _where(text)
    kept = _attempt(lambda: compile_filter(
        expr, SCOPE, None, TYPES, OUTER)(rows, outer))
    reference = _attempt(lambda: [
        row for row in rows
        if compile_predicate(expr, OUTER + SCOPE)(outer + row)])
    assert kept == reference


def _is_kernel(keep):
    return keep.__code__.co_filename == "<filter kernel>"


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
def test_other_shapes_keep_the_closure(text):
    assert not _is_kernel(compile_filter(_where(text), SCOPE, None, TYPES))


def test_unknown_types_keep_the_closure():
    assert not _is_kernel(compile_filter(_where("a = 1"), SCOPE))


def test_null_literal_matches_nothing():
    rows = [(None, 1, 1.0, "a"), (1, 1, 1.0, "a")]
    for text in ("a = null", "a != null", "a between null and 5",
                 "a not between null and 5", "a not in (2, null)"):
        assert compile_filter(_where(text), SCOPE, None, TYPES)(
            rows, ()) == []
    assert compile_filter(_where("a in (null, 1)"), SCOPE, None, TYPES)(
        rows, ()) == [rows[1]]


def test_off_type_value_falls_back_to_the_closures_error():
    """A stored value off its column's declared type makes the kernel
    hand the batch to the closure, which reports it as always."""
    keep = compile_filter(_where("a < 3"), SCOPE, None, TYPES)
    assert _is_kernel(keep)
    assert keep([(1, 0, 0.0, "")], ()) == [(1, 0, 0.0, "")]
    with pytest.raises(ReproError, match="cannot compare"):
        keep([(1, 0, 0.0, ""), ("x", 0, 0.0, "")], ())


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
def _closures_only():
    """Every operator compiled meanwhile filters through the per-row
    closure under the batch API; yields the filters those operators
    bound.  A prepared statement compiled earlier is not compiled
    again: run the closure side in a fresh session."""
    bound = []

    def closure(expr, scope, params=None, types=None, outer=(),
                entries=False):
        bind = prepare_filter(None, scope) if expr is None else partial(
            evaluator._closure_filter, expr,
            evaluator.ScopeIndex(outer + scope), len(outer), entries)

        def recording(params):
            bound.append(bind(params))
            return bound[-1]

        return recording

    with pytest.MonkeyPatch.context() as patch:
        for module in (scan, joins):
            patch.setattr(module, "prepare_filter", closure)
        yield bound


def _closures_compiled(bound, outcome):
    """The closure side bound filters, none a kernel (unless the
    statement failed before it compiled)."""
    failed = isinstance(outcome, tuple) and isinstance(outcome[0], str)
    return (bound or failed) and not any(map(_is_kernel, bound))


def _result(session, text):
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
    """Kernels on and off: the same rows in the same order, the same
    ``tuples_processed`` (a LIMIT counts only up to the row it stopped
    at) and the same errors, on every stored structure and join."""
    with kernel_engine.connect("k") as session:
        with_kernels = _result(session, text)
    with kernel_engine.connect("k") as fresh, _closures_only() as bound:
        assert _result(fresh, text) == with_kernels
        assert _closures_compiled(bound, with_kernels)


def test_limit_stops_inside_the_page(kernel_engine):
    """The scan has matched the page's first 40-odd rows when the LIMIT
    takes its fourth and stops; only those four count."""
    text = "select a from t where a >= 0 limit 3"
    with kernel_engine.connect("k") as session:
        result = session.execute(text)
    with kernel_engine.connect("k") as fresh, _closures_only() as bound:
        assert _result(fresh, text) == (
            result.rows, result.metrics.tuples_processed)
        assert _closures_compiled(bound, result)
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
        expected = compile_predicate(ast.BinaryOp(
            op, ast.ColumnRef(f"c{i}"), ast.ColumnRef(f"c{j}")), scope)(row)
        assert keep([row], ()) == ([row] if expected else [])
    info = factory.cache_info()
    assert info.misses == len(shapes)
    assert info.currsize == info.maxsize < len(shapes)
    i, op, j = shapes[-1]
    compile_filter(ast.BinaryOp(op, ast.ColumnRef(f"c{i}"),
                                ast.ColumnRef(f"c{j}")), scope, None, types)
    assert factory.cache_info().hits == info.hits + 1
