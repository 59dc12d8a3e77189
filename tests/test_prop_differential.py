"""Differential testing: the engine vs. a naive Python oracle.

Random single-table and two-table queries are executed both by the full
engine (parser -> optimizer -> executor over real storage) and by a
deliberately simple in-Python evaluator.  Results must agree as
multisets — across heap and B-Tree layouts, with and without
secondary indexes, so every access path is cross-checked against the
same oracle.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.setups import original_setup

COLUMNS = ("a", "b", "s")

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.one_of(st.none(), st.integers(-5, 5)),
        st.sampled_from(["x", "y", "zz", "prefix_long"]),
    ),
    min_size=0, max_size=40,
)

comparison = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.integers(-3, 10),
)


def predicate_sql_and_oracle(spec):
    column, op, literal = spec
    sql = f"{column} {op} {literal}"
    index = COLUMNS.index(column)

    def oracle(row):
        value = row[index]
        if value is None:
            return False
        return {
            "=": value == literal, "!=": value != literal,
            "<": value < literal, "<=": value <= literal,
            ">": value > literal, ">=": value >= literal,
        }[op]

    return sql, oracle


class _Database:
    """One engine + loaded table per hypothesis example."""

    def __init__(self, rows, layout: str):
        setup = original_setup()
        setup.engine.create_database("d")
        self.session = setup.engine.connect("d")
        self.session.execute(
            "create table t (pk int not null, a int, b int, s varchar(20), "
            "primary key (pk))")
        if rows:
            values = ", ".join(
                f"({i}, {r[0]}, {'null' if r[1] is None else r[1]}, '{r[2]}')"
                for i, r in enumerate(rows))
            self.session.execute(f"insert into t values {values}")
        if layout == "btree":
            self.session.execute("modify t to btree")
        elif layout == "indexed":
            self.session.execute("create index i_a on t (a)")
            self.session.execute("create statistics on t")


@st.composite
def query_case(draw):
    rows = draw(rows_strategy)
    layout = draw(st.sampled_from(["heap", "btree", "indexed"]))
    spec = draw(comparison)
    return rows, layout, spec


class TestSingleTableDifferential:
    @given(case=query_case())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_filter_matches_oracle(self, case):
        rows, layout, spec = case
        database = _Database(rows, layout)
        sql_pred, oracle = predicate_sql_and_oracle(spec)
        result = database.session.execute(
            f"select a, b, s from t where {sql_pred}")
        expected = sorted(
            (row for row in rows if oracle(row)),
            key=lambda r: (str(type(r[1])), str(r)),
        )
        got = sorted(result.rows, key=lambda r: (str(type(r[1])), str(r)))
        assert got == expected

    @given(case=query_case())
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_aggregates_match_oracle(self, case):
        rows, layout, spec = case
        database = _Database(rows, layout)
        sql_pred, oracle = predicate_sql_and_oracle(spec)
        result = database.session.execute(
            f"select count(*), count(b), sum(a), min(a), max(a) "
            f"from t where {sql_pred}")
        matching = [row for row in rows if oracle(row)]
        count_star, count_b, sum_a, min_a, max_a = result.rows[0]
        assert count_star == len(matching)
        assert count_b == sum(1 for r in matching if r[1] is not None)
        assert sum_a == (sum(r[0] for r in matching) if matching else None)
        assert min_a == (min((r[0] for r in matching), default=None))
        assert max_a == (max((r[0] for r in matching), default=None))

    @given(rows=rows_strategy,
           layout=st.sampled_from(["heap", "btree", "indexed"]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_group_by_matches_oracle(self, rows, layout):
        database = _Database(rows, layout)
        result = database.session.execute(
            "select a, count(*) from t group by a order by a")
        expected: dict[int, int] = {}
        for row in rows:
            expected[row[0]] = expected.get(row[0], 0) + 1
        assert result.rows == sorted(expected.items())

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_order_by_with_nulls(self, rows):
        database = _Database(rows, "heap")
        result = database.session.execute(
            "select b from t order by b")
        values = [r[0] for r in result.rows]
        nulls = [v for v in values if v is None]
        rest = [v for v in values if v is not None]
        assert values == nulls + sorted(rest)  # NULLs first, then ordered
        assert sorted(str(v) for v in values) == \
            sorted(str(r[1]) for r in rows)


class TestJoinDifferential:
    left_rows = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 99)),
                         min_size=0, max_size=20)
    right_rows = st.lists(st.tuples(st.one_of(st.none(),
                                              st.integers(0, 8)),
                                    st.sampled_from(["p", "q"])),
                          min_size=0, max_size=20)

    @given(left=left_rows, right=right_rows,
           layout=st.sampled_from(["heap", "btree", "indexed"]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equi_join_matches_oracle(self, left, right, layout):
        setup = original_setup()
        setup.engine.create_database("d")
        session = setup.engine.connect("d")
        session.execute("create table l (k int not null, v int, "
                        "primary key (k))")
        session.execute("create table r (lk int, tag varchar(4))")
        if left:
            values = ", ".join(f"({i}, {k * 1000 + v})"
                               for i, (k, v) in enumerate(left))
            # keys collide on purpose below via k % 4
            session.execute(f"insert into l values {values}")
            session.execute("update l set v = v % 4")
        if right:
            values = ", ".join(
                f"({'null' if k is None else k}, '{tag}')"
                for k, tag in right)
            session.execute(f"insert into r values {values}")
        if layout == "btree":
            session.execute("modify l to btree")
        elif layout == "indexed":
            session.execute("create index i_lk on r (lk)")
            session.execute("create statistics on l")
            session.execute("create statistics on r")

        result = session.execute(
            "select l.k, r.tag from l join r on l.k = r.lk")
        left_keys = [i for i, _pair in enumerate(left)]
        expected = sorted(
            (key, tag)
            for key in left_keys
            for rk, tag in right
            if rk == key
        )
        assert sorted(result.rows) == expected
