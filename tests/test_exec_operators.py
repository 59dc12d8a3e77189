"""Direct tests of executor operators and scan helpers."""

from itertools import chain

import pytest

from repro.errors import ExecutionError
from repro.execution.scan import key_bounds
from repro.optimizer.plans import KeyCondition


class TestKeyBounds:
    def test_pure_equality(self):
        lo, hi, lo_inc, hi_inc = key_bounds((
            KeyCondition("a", "=", 5), KeyCondition("b", "=", "x"),
        ))
        assert lo == hi == (5, "x")
        assert lo_inc and hi_inc

    def test_equality_plus_range(self):
        lo, hi, lo_inc, hi_inc = key_bounds((
            KeyCondition("a", "=", 5),
            KeyCondition("b", ">", 10),
            KeyCondition("b", "<=", 20),
        ))
        assert lo == (5, 10) and not lo_inc
        assert hi == (5, 20) and hi_inc

    def test_open_lower_bound(self):
        lo, hi, _lo_inc, hi_inc = key_bounds((
            KeyCondition("a", "<", 9),
        ))
        assert lo is None
        assert hi == (9,) and not hi_inc

    def test_open_upper_bound(self):
        lo, hi, lo_inc, _hi_inc = key_bounds((
            KeyCondition("a", ">=", 3),
        ))
        assert lo == (3,) and lo_inc
        assert hi is None

    def test_no_conditions(self):
        assert key_bounds(()) == (None, None, True, True)

    def test_range_after_equality_prefix_keeps_prefix_bound(self):
        lo, hi, _lo_inc, _hi_inc = key_bounds((
            KeyCondition("a", "=", 1),
            KeyCondition("b", ">=", 5),
        ))
        assert lo == (1, 5)
        assert hi == (1,)  # prefix-only upper bound

    def test_unsupported_operator_rejected(self):
        with pytest.raises(ExecutionError):
            key_bounds((KeyCondition("a", "!=", 1),))


class TestOperatorBehaviourViaSql:
    """Operator edge cases exercised through the full pipeline."""

    @pytest.fixture
    def types_session(self, session):
        session.execute(
            "create table mixed (i int, f float, s varchar(10), b bool)")
        session.execute(
            "insert into mixed values (1, 1.5, 'a', true), "
            "(2, 2.5, 'b', false), (null, null, null, null)")
        return session

    def test_sort_mixed_with_nulls(self, types_session):
        result = types_session.execute(
            "select i from mixed order by i desc")
        assert [r[0] for r in result.rows] == [2, 1, None]

    def test_bool_column_round_trip(self, types_session):
        result = types_session.execute(
            "select count(*) from mixed where b = true")
        assert result.scalar() == 1

    def test_distinct_with_null_rows(self, types_session):
        types_session.execute(
            "insert into mixed values (null, null, null, null)")
        result = types_session.execute("select distinct i from mixed")
        assert len(result.rows) == 3  # 1, 2, NULL (one NULL group)

    def test_limit_zero(self, types_session):
        assert types_session.execute(
            "select i from mixed limit 0").rows == []

    def test_offset_beyond_rows(self, types_session):
        assert types_session.execute(
            "select i from mixed limit 5 offset 99").rows == []

    def test_min_max_on_strings(self, types_session):
        result = types_session.execute(
            "select min(s), max(s) from mixed")
        assert result.rows == [("a", "b")]

    def test_sum_distinct(self, types_session):
        types_session.execute(
            "insert into mixed values (1, 9.0, 'z', true)")
        result = types_session.execute(
            "select sum(distinct i) from mixed")
        assert result.scalar() == 3  # 1 + 2, the duplicate 1 ignored

    def test_avg_of_ints_is_float(self, types_session):
        value = types_session.execute(
            "select avg(i) from mixed").scalar()
        assert value == pytest.approx(1.5)

    def test_group_by_bool(self, types_session):
        result = types_session.execute(
            "select b, count(*) from mixed group by b order by b")
        assert (True, 1) in result.rows
        assert (False, 1) in result.rows

    def test_having_without_group_by(self, types_session):
        result = types_session.execute(
            "select count(*) from mixed having count(*) > 100")
        assert result.rows == []
        result = types_session.execute(
            "select count(*) from mixed having count(*) > 1")
        assert result.rows == [(3,)]

    def test_projection_arithmetic_with_nulls(self, types_session):
        result = types_session.execute(
            "select i + 1, f * 2 from mixed order by i")
        assert result.rows[-1] == (3, 5.0)
        assert result.rows[0] == (None, None)

    def test_where_on_computed_expression(self, types_session):
        result = types_session.execute(
            "select i from mixed where i * 2 + 1 = 5")
        assert result.rows == [(2,)]

    def test_like_on_null_is_not_match(self, types_session):
        result = types_session.execute(
            "select count(*) from mixed where s like '%'")
        assert result.scalar() == 2  # NULL never LIKE-matches


class TestScanPathsAgree:
    """The same query must return identical rows on every access path."""

    @pytest.fixture
    def variants(self, engine):
        results = {}
        for layout in ("heap", "btree", "indexed"):
            engine_db = f"db_{layout}"
            engine.create_database(engine_db)
            session = engine.connect(engine_db)
            session.execute(
                "create table t (k int not null, grp int, v varchar(8), "
                "primary key (k))")
            values = ", ".join(
                f"({i}, {i % 7}, 'v{i % 13}')" for i in range(500))
            session.execute(f"insert into t values {values}")
            if layout == "btree":
                session.execute("modify t to btree")
            elif layout == "indexed":
                session.execute("create index i_k on t (k)")
            session.execute("create statistics on t")
            results[layout] = session
        return results

    @pytest.mark.parametrize("query", [
        "select k from t where k = 250",
        "select count(*) from t where grp = 3",
        "select sum(k) from t where k between 100 and 200",
        "select grp, count(*) from t group by grp order by grp",
        "select v, min(k) from t where k > 250 group by v order by v",
    ])
    def test_layouts_agree(self, variants, query):
        answers = {layout: session.execute(query).rows
                   for layout, session in variants.items()}
        assert answers["heap"] == answers["btree"] == answers["indexed"]

    def test_each_layout_reads_its_own_path(self, variants):
        plans = {layout: " ".join(row[0] for row in session.execute(
                     "explain select k from t where k = 250").rows)
                 for layout, session in variants.items()}
        assert "SeqScan(t" in plans["heap"]
        assert "BTreeScan(t" in plans["btree"]
        assert "IndexScan(i_k" in plans["indexed"]


class TestColumnOnlyProjection:
    """project_step passes rows through or picks positions when every
    select-list entry merely reads a child column; the work counter
    advances once per row pulled either way."""

    SCOPE = (("t", "a"), ("t", "b"), (None, "count(*)"))
    ROWS = [(1, "x", 10), (2, None, 20), (3, "z", 30)]

    def project(self, *expressions):
        from types import SimpleNamespace
        from repro.execution.scan import Counters
        from repro.execution.shaping import project_step
        from repro.sql.parser import parse_statement
        select = parse_statement(f"select {', '.join(expressions)} from t")
        plan = SimpleNamespace(
            child=SimpleNamespace(scope=self.SCOPE),
            expressions=tuple(i.expression for i in select.select_items))
        counters = Counters()
        # One row per batch, as below a LIMIT; the rows come out flat.
        step = project_step(plan, None, None, True, lambda counters: iter(
            [[row] for row in self.ROWS]))
        return chain.from_iterable(step(counters)), counters

    def test_identity_passes_the_child_rows_through(self):
        rows, counters = self.project("a", "t.b", "count(*)")
        out = list(rows)
        assert out == self.ROWS
        assert all(got is given for got, given in zip(out, self.ROWS))
        assert counters.tuples == 3

    def test_reordered_and_repeated_columns(self):
        rows, counters = self.project("count(*)", "a", "a")
        assert list(rows) == [(10, 1, 1), (20, 2, 2), (30, 3, 3)]
        assert counters.tuples == 3

    def test_single_column_still_yields_tuples(self):
        rows, _ = self.project("b")
        assert list(rows) == [("x",), (None,), ("z",)]

    def test_computed_entries_take_the_general_path(self):
        rows, counters = self.project("a", "a + 1", "'k'")
        assert list(rows) == [(1, 2, "k"), (2, 3, "k"), (3, 4, "k")]
        assert counters.tuples == 3

    def test_counter_advances_per_row_pulled_not_per_row_available(self):
        for expressions in (("a", "b", "count(*)"), ("b", "a"), ("a + 1",)):
            rows, counters = self.project(*expressions)
            next(rows)
            assert counters.tuples == 1
            next(rows)
            assert counters.tuples == 2

    def test_unknown_column_is_still_an_error(self):
        with pytest.raises(ExecutionError, match="not in scope"):
            rows, _ = self.project("a", "nope")  # compiling finds it
            list(rows)

    def test_select_star_and_column_lists_via_sql(self, session):
        session.execute("create table p (i int, s varchar(5), f float)")
        session.execute("insert into p values (1, 'a', 1.5), (2, null, 2.5)")
        assert session.execute("select * from p").rows == \
            [(1, "a", 1.5), (2, None, 2.5)]
        assert session.execute("select f, i from p").rows == \
            [(1.5, 1), (2.5, 2)]
        assert session.execute("select s from p").rows == [("a",), (None,)]
