"""An independent oracle: the engine against stdlib ``sqlite3``.

A small NREF instance is loaded into three engines — this one with its
plan cache on, this one with ``PLAN_CACHE_SIZE`` patched to 0, and SQLite — and
the 50 NREF queries plus reduced ``perf.workloads`` streams (all four,
DML included) run on each.  Results are compared as order-free
canonical rows, floats rounded to nine significant digits.

Why three: cache-off against SQLite checks the engine itself against
something that shares none of its code; cache-on against cache-off
checks that running a prepared plan under another text's literal
vector is invisible.

A ``LIMIT`` picks among rows that tie on the sort key, so a limited
statement is checked in two parts: its limit-free text must match
SQLite exactly, and the limited text must match SQLite in row count
and in the multiset of its sort key (the last select item in every
limited template of these workloads) — and exactly between the two
engine configurations.
"""

from __future__ import annotations

import math
import random
import re
import sqlite3
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from perf import workloads
from repro.catalog.schema import DataType
from repro.engine import EngineInstance
from repro.engine import session as session_module
from repro.workloads import NrefScale, complex_query_set, load_nref
from repro.workloads.nref import NREF_SCHEMAS, generate_rows

SCALE = NrefScale(proteins=150)
SIZES = {
    "trivial_flood": workloads.Size(SCALE.proteins, 120, 40, 40, 1.0),
    "distinct_joins": workloads.Size(SCALE.proteins, 96, 24, 24, 1.0),
    "complex_joins": workloads.Size(SCALE.proteins, 24, 2, 12, 1.0),
    "mixed_dml": workloads.Size(SCALE.proteins, 60, 20, 20, 1.0),
}
_SQLITE_TYPES = {DataType.INT: "integer", DataType.FLOAT: "real",
                 DataType.BOOL: "integer"}
_LIMIT = re.compile(r"\s+limit\s+\d+(\s+offset\s+\d+)?\s*$")


def _significant(value):
    if isinstance(value, float) and math.isfinite(value) and value:
        return round(value, 8 - math.floor(math.log10(abs(value))))
    return value


def canonical(rows) -> list[str]:
    return sorted(repr(tuple(_significant(v) for v in row)) for row in rows)


class Engines:
    """The same data and the same statements on all three."""

    def __init__(self) -> None:
        self.sessions = {}
        for name, size in (("cached", 256), ("uncached", 0)):
            engine = EngineInstance()
            engine.create_database("nref")
            load_nref(engine.database("nref"), SCALE)
            with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
                self.sessions[name] = engine.connect("nref")
        # isolation_level=None: BEGIN/COMMIT are the stream's own.
        self.sqlite = sqlite3.connect(":memory:", isolation_level=None)
        self.sqlite.execute("pragma case_sensitive_like = on")
        for schema in NREF_SCHEMAS:
            columns = ", ".join(
                f"{c.name} {_SQLITE_TYPES.get(c.data_type, 'text')}"
                for c in schema.columns)
            self.sqlite.execute(f"create table {schema.name} ({columns})")
        for table, rows in generate_rows(SCALE).items():
            rows = list(rows)
            marks = ", ".join("?" * len(rows[0]))
            self.sqlite.executemany(
                f"insert into {table} values ({marks})", rows)

    def run(self, text: str):
        """``text`` on all three: ``(cached, uncached, sqlite)`` as row
        lists for a query, row counts for DML, None where SQLite has no
        such statement."""
        ours = []
        for session in self.sessions.values():
            result = session.execute(text)
            rows = getattr(result, "rows", None)
            ours.append(result.rowcount if rows is None else rows)
        if text.startswith("modify"):
            return ours[0], ours[1], None
        cursor = self.sqlite.execute(text)
        if cursor.description is not None:
            return ours[0], ours[1], cursor.fetchall()
        # SQLite has no row count for BEGIN/COMMIT/DDL (-1); ours is 0.
        return ours[0], ours[1], max(cursor.rowcount, 0)

    def check(self, text: str) -> None:
        cached, uncached, theirs = self.run(text)
        if not isinstance(cached, list):
            assert cached == uncached, text
            assert theirs is None or cached == theirs, text
            return
        assert canonical(cached) == canonical(uncached), text
        if not _LIMIT.search(text):
            assert canonical(uncached) == canonical(theirs), text
            return
        assert len(uncached) == len(theirs), text
        assert canonical((row[-1],) for row in uncached) \
            == canonical((row[-1],) for row in theirs), text
        self.check(_LIMIT.sub("", text))


@pytest.fixture(scope="module")
def engines() -> Engines:
    return Engines()


def test_the_50_nref_queries(engines):
    statements = complex_query_set(SCALE)
    assert len(statements) == 50
    for text in statements:
        engines.check(text)
    # A second pass with other literals runs the prepared plans.
    for text in complex_query_set(SCALE, seed=8):
        engines.check(text)
    assert engines.sessions["cached"].plan_cache_hits > 0
    assert engines.sessions["uncached"].plan_cache_hits == 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_reduced_benchmark_stream(engines, name):
    workload = workloads.build(name, seed=5, rounds=2, size=SIZES[name])
    hits = engines.sessions["cached"].plan_cache_hits
    for text in workload.prepare:
        engines.check(text)
    for chunk in workload.chunks:
        for text in chunk:
            engines.check(text)
    for query, expected in (workload.final_checks[-1]
                            if workload.final_checks else ()):
        cached, uncached, theirs = engines.run(query)
        assert cached == uncached == expected, query
        assert canonical(theirs) == canonical(expected), query
    assert engines.sessions["cached"].plan_cache_hits > hits


# -- generated expressions -------------------------------------------------------
#
# WHERE clauses and select lists drawn from every expression node, run
# on this engine (plan cache on and off) and on SQLite over the same
# rows.  Each comparison has operands of one kind (mixed kinds raise
# here and sort in SQLite); there is no ``/`` or ``%`` (SQLite truncates
# integer division); a boolean result reads as 0/1.

_TEXTS = ["a", "ab", "b", "abc", "B", "ba", ""]
_FLOATS = [-2.75, -1.0, 0.5, 1.25, 3.0]


def _expression_rows(count: int, seed: int) -> list[tuple]:
    """``(id, a, b, f, s, u)``: INT, INT, FLOAT, VARCHAR, VARCHAR, each
    NULL now and then."""
    rng = random.Random(seed)

    def maybe(values):
        return None if rng.random() < 0.2 else rng.choice(values)

    return [(i, maybe(range(-4, 6)), maybe(range(-4, 6)), maybe(_FLOATS),
             maybe(_TEXTS), maybe(_TEXTS)) for i in range(count)]


def _sql_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class ExpressionEngines:
    """``th`` a heap and ``tb`` a B-Tree of the same rows, ``v`` a join
    partner (``k`` INT, ``g`` FLOAT, ``w`` VARCHAR), on two engines
    (plan cache on and ``PLAN_CACHE_SIZE`` 0) and on SQLite."""

    TABLES = {
        "th": "id int not null, a int, b int, f float, s varchar(8), "
              "u varchar(8), primary key (id)",
        "tb": "id int not null, a int, b int, f float, s varchar(8), "
              "u varchar(8), primary key (id)",
        "v": "vid int not null, k int, g float, w varchar(8), "
             "primary key (vid)",
    }

    def __init__(self) -> None:
        rows = _expression_rows(40, 3)
        data = {"th": rows, "tb": rows,
                "v": [row[:2] + row[3:5] for row in _expression_rows(25, 4)]}
        self.sqlite = sqlite3.connect(":memory:")
        self.sqlite.execute("pragma case_sensitive_like = on")
        self.sessions = []
        for size in (256, 0):
            engine = EngineInstance()
            engine.create_database("x")
            with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
                self.sessions.append(engine.connect("x"))
        for table, columns in self.TABLES.items():
            values = ", ".join("(" + ", ".join(map(_sql_value, row)) + ")"
                               for row in data[table])
            for session in self.sessions:
                session.execute(f"create table {table} ({columns})")
                session.execute(f"insert into {table} values {values}")
                if table == "tb":
                    session.execute("modify tb to btree")
            self.sqlite.execute(
                f"create table {table} ({columns.replace('float', 'real')})")
            self.sqlite.execute(f"insert into {table} values {values}")

    def check(self, text: str) -> None:
        theirs = _as_sqlite(self.sqlite.execute(text).fetchall())
        for session in self.sessions:
            assert _as_sqlite(session.execute(text).rows) == theirs, text


def _as_sqlite(rows) -> list[str]:
    """Order-free canonical rows; booleans as 0/1, -0.0 as 0.0."""
    return canonical(tuple(int(v) if isinstance(v, bool)
                           else v + 0.0 if isinstance(v, float) else v
                           for v in row) for row in rows)


def _parenthesized(template):
    return lambda *parts: "(" + template.format(*parts) + ")"


def _numbers(columns):
    leaf = st.one_of(
        st.sampled_from(columns),
        st.one_of(st.integers(-4, 6), st.sampled_from(_FLOATS)).map(
            lambda value: f"({value!r})" if value < 0 else repr(value)),
        st.just("null"))
    return st.recursive(leaf, lambda inner: st.one_of(
        st.builds(_parenthesized("-{}"), inner),
        st.builds(_parenthesized("{} {} {}"), inner,
                  st.sampled_from(["+", "-", "*"]), inner),
        st.builds(_parenthesized("abs({})"), inner),
        st.builds(_parenthesized("coalesce({}, {})"), inner, inner),
    ), max_leaves=4)


def _texts(columns):
    leaf = st.one_of(st.sampled_from(columns),
                     st.sampled_from(_TEXTS).map(_sql_value), st.just("null"))
    return st.recursive(leaf, lambda inner: st.one_of(
        st.builds(_parenthesized("upper({})"), inner),
        st.builds(_parenthesized("lower({})"), inner),
        st.builds(_parenthesized("coalesce({}, {})"), inner, inner),
    ), max_leaves=3)


def _conditions(numbers, texts):
    op = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    negated = st.sampled_from(["", "not "])

    def of_kind(values):
        return st.one_of(
            st.builds(_parenthesized("{} {} {}"), values, op, values),
            st.builds(_parenthesized("{} {}between {} and {}"),
                      values, negated, values, values),
            st.builds(lambda x, neg, items: f"({x} {neg}in "
                      f"({', '.join(items)}))", values, negated,
                      st.lists(values, min_size=1, max_size=3)),
            st.builds(_parenthesized("{} is {}null"), values, negated))

    atom = st.one_of(
        of_kind(numbers), of_kind(texts),
        st.builds(_parenthesized("{} {}like {}"), texts, negated,
                  st.sampled_from(["'a%'", "'%b'", "'_'", "'a_c'", "'%'",
                                   "''", "null"])))
    return st.recursive(atom, lambda inner: st.one_of(
        st.builds(_parenthesized("{} and {}"), inner, inner),
        st.builds(_parenthesized("{} or {}"), inner, inner),
        st.builds(_parenthesized("not {}"), inner),
    ), max_leaves=4)


_T_COLUMNS = (["t.id", "a", "b", "f"], ["s", "u"])
_JOINED_COLUMNS = (["a", "b", "f", "k", "g"], ["s", "u", "w"])


@st.composite
def _expression_queries(draw):
    join = draw(st.booleans())
    numbers, texts = (_numbers(c) for c in (
        _JOINED_COLUMNS if join else _T_COLUMNS))
    texts = _texts((_JOINED_COLUMNS if join else _T_COLUMNS)[1])
    condition = _conditions(numbers, texts)
    items = draw(st.lists(st.one_of(
        numbers, texts, st.builds("length({})".format, texts), condition),
        min_size=1, max_size=3))
    table = draw(st.sampled_from(["th", "tb"]))
    source = f"{table} t join v on t.a = v.k" if join else f"{table} t"
    where = draw(st.one_of(st.none(), condition))
    return (f"select {', '.join(items)} from {source}"
            + ("" if where is None else f" where {where}"))


@pytest.fixture(scope="module")
def expression_engines() -> ExpressionEngines:
    return ExpressionEngines()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(text=_expression_queries())
def test_generated_expressions_match_sqlite(expression_engines, text):
    expression_engines.check(text)
