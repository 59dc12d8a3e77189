"""The constructs the engine rejects by name (outer joins, subqueries,
a FROM of more than six tables), and the EXPLAIN statement."""

import re

import pytest

from repro.errors import OptimizerError, ParseError
from repro.invariants import conservation_violations
from repro.setups import monitoring_setup
from repro.sql.parser import parse_statement

_TABLES = ("create table customer (id int not null, "
           "name varchar(20), primary key (id))",
           "create table orders (id int not null, cust int, "
           "total int, primary key (id))")
_ROWS = ("insert into customer values (1, 'ann'), (2, 'bob'), (3, 'cyd')",
         "insert into orders values (10, 1, 100), (11, 1, 50), "
         "(12, 2, 75), (13, 99, 10), (14, null, 5)")


@pytest.fixture
def orders_session(session):
    for text in _TABLES + _ROWS:
        session.execute(text)
    return session


@pytest.fixture
def monitored():
    """The Monitoring setup's session over the same two tables."""
    setup = monitoring_setup()
    setup.engine.create_database("shop")
    with setup.engine.connect("shop") as session:
        for text in _TABLES + _ROWS:
            session.execute(text)
        yield setup, session


def _self_joins(count):
    """A FROM of ``count`` aliases of ``customer``, joined on id."""
    joins = "".join(f" join customer c{i} on c{i - 1}.id = c{i}.id"
                    for i in range(2, count + 1))
    return f"select count(*) from customer c1{joins}"


# (id, text, error, the construct its message names)
REJECTED = [
    ("left-join", "select c.name from customer c "
     "left join orders o on c.id = o.cust", ParseError, "LEFT [OUTER] JOIN"),
    ("left-outer-join", "select count(*) from customer c "
     "left outer join orders o on c.id = o.cust", ParseError,
     "LEFT [OUTER] JOIN"),
    ("select-scalar-subquery", "select id from orders where total = "
     "(select max(total) from orders)", ParseError, "subqueries"),
    ("select-list-subquery", "select (select count(*) from orders)",
     ParseError, "subqueries"),
    ("select-in-subquery", "select name from customer where id in "
     "(select cust from orders)", ParseError, "subqueries"),
    ("update-scalar-subquery", "update orders set total = 0 where total < "
     "(select avg(total) from orders)", ParseError, "subqueries"),
    ("update-in-subquery", "update orders set total = 0 where cust in "
     "(select id from customer)", ParseError, "subqueries"),
    ("delete-scalar-subquery", "delete from orders where total = "
     "(select min(total) from orders)", ParseError, "subqueries"),
    ("delete-in-subquery", "delete from orders where cust not in "
     "(select id from customer)", ParseError, "subqueries"),
    ("from-of-7-tables", _self_joins(7), OptimizerError,
     "a FROM of 7 tables"),
]


class TestRejectedConstructs:
    @pytest.mark.parametrize("text, error, construct",
                             [case[1:] for case in REJECTED],
                             ids=[case[0] for case in REJECTED])
    def test_rejected_by_name_and_counted_once(self, monitored, monkeypatch,
                                               text, error, construct):
        setup, session = monitored
        monitor, sensors = setup.monitor, setup.engine.sensors
        report, errors = sensors.statement_error, []

        def spy(statement, failed_text, *rest):
            errors.append(failed_text)
            report(statement, failed_text, *rest)

        monkeypatch.setattr(sensors, "statement_error", spy)
        count = "select count(*), sum(total) from orders"
        rows = session.execute(count).rows
        issued = monitor.issued
        with pytest.raises(error, match=re.escape(construct)):
            session.execute(text)
        assert errors == [text]
        assert monitor.issued == issued + 1
        assert conservation_violations(monitor) == []
        assert session.execute(count).rows == rows

    def test_left_is_not_an_alias(self):
        text = "select a from t left join u on t.a = u.a"
        with pytest.raises(ParseError, match=re.escape(
                "LEFT [OUTER] JOIN is not supported (near 'left' at "
                f"offset {text.index('left')})")):
            parse_statement(text)

    def test_a_from_of_6_tables_is_planned(self, monitored):
        _setup, session = monitored
        assert session.execute(_self_joins(6)).scalar() == 3


_OUTER_JOIN = re.escape("LEFT [OUTER] JOIN is not supported")
_SUBQUERY = "subqueries are not supported"


def _contents(session):
    return (session.execute("select * from customer order by id").rows,
            session.execute("select * from orders order by id").rows)


def _rejected(session, text, message):
    """``text`` fails to parse with ``message`` and changes no row."""
    before = _contents(session)
    with pytest.raises(ParseError, match=message):
        session.execute(text)
    assert _contents(session) == before


class TestLeftJoin:
    """LEFT [OUTER] JOIN is rejected wherever it appears.  Each text is
    one the removed outer-join planner answered; where a test's point
    holds for inner joins too, the inner form is checked as well."""

    def test_unmatched_rows_null_padded(self, orders_session):
        _rejected(orders_session,
                  "select c.name, o.total from customer c "
                  "left join orders o on c.id = o.cust order by c.id, o.id",
                  _OUTER_JOIN)
        result = orders_session.execute(
            "select c.name, o.total from customer c "
            "join orders o on c.id = o.cust order by c.id, o.id")
        assert result.rows == [("ann", 100), ("ann", 50), ("bob", 75)]

    def test_left_outer_keyword(self, orders_session):
        _rejected(orders_session,
                  "select count(*) from customer c "
                  "left outer join orders o on c.id = o.cust", _OUTER_JOIN)

    def test_anti_join_pattern(self, orders_session):
        _rejected(orders_session,
                  "select c.name from customer c "
                  "left join orders o on c.id = o.cust where o.id is null",
                  _OUTER_JOIN)

    def test_where_applies_after_join(self, orders_session):
        _rejected(orders_session,
                  "select c.name from customer c "
                  "left join orders o on c.id = o.cust where o.total > 60 "
                  "order by c.name", _OUTER_JOIN)
        result = orders_session.execute(
            "select c.name from customer c "
            "join orders o on c.id = o.cust where o.total > 60 "
            "order by c.name")
        assert result.rows == [("ann",), ("bob",)]

    def test_null_join_keys_never_match(self, orders_session):
        _rejected(orders_session,
                  "select count(*) from orders o "
                  "left join customer c on o.cust = c.id where c.id is null",
                  _OUTER_JOIN)
        result = orders_session.execute(
            "select count(*) from orders o join customer c on o.cust = c.id")
        assert result.scalar() == 3  # cust=99 and cust=NULL match nothing

    def test_non_equi_left_join(self, orders_session):
        _rejected(orders_session,
                  "select c.id, o.id from customer c "
                  "left join orders o on o.total > 70 and c.id = o.cust "
                  "order by c.id", _OUTER_JOIN)
        result = orders_session.execute(
            "select c.id, o.id from customer c "
            "join orders o on o.total > 70 and c.id = o.cust order by c.id")
        assert result.rows == [(1, 10), (2, 12)]

    def test_chained_left_joins(self, orders_session):
        orders_session.execute(
            "create table shipment (order_id int, carrier varchar(8))")
        orders_session.execute("insert into shipment values (10, 'dhl')")
        _rejected(orders_session,
                  "select c.name, o.id, s.carrier from customer c "
                  "left join orders o on c.id = o.cust "
                  "left join shipment s on o.id = s.order_id "
                  "order by c.id, o.id", _OUTER_JOIN)

    def test_mixed_inner_then_left(self, orders_session):
        text = ("select c.name, o.id from customer c "
                "join orders o on c.id = o.cust "
                "left join customer c2 on o.total = c2.id order by o.id")
        _rejected(orders_session, text, re.escape(
            f"(near 'left' at offset {text.index('left')})"))

    def test_aggregation_over_left_join(self, orders_session):
        _rejected(orders_session,
                  "select c.name, count(o.id) from customer c "
                  "left join orders o on c.id = o.cust "
                  "group by c.name order by c.name", _OUTER_JOIN)
        result = orders_session.execute(
            "select c.name, count(o.id) from customer c "
            "join orders o on c.id = o.cust group by c.name order by c.name")
        assert result.rows == [("ann", 2), ("bob", 1)]

    def test_explain_shows_outer_join(self, orders_session):
        text = ("select c.name from customer c "
                "left join orders o on c.id = o.cust")
        with pytest.raises(ParseError, match=_OUTER_JOIN):
            orders_session.explain(text)
        _rejected(orders_session, f"explain {text}", _OUTER_JOIN)


class TestSubqueries:
    """A subquery is rejected wherever it sits: in a comparison, a select
    list, an IN list, a BETWEEN bound, another subquery, and in UPDATE
    and DELETE.  Each text is one the removed subquery materialisation
    answered."""

    def test_scalar_in_comparison(self, orders_session):
        _rejected(orders_session, "select id from orders where total = "
                  "(select max(total) from orders)", _SUBQUERY)

    def test_scalar_in_select_list(self, orders_session):
        _rejected(orders_session, "select (select count(*) from orders)",
                  _SUBQUERY)

    def test_in_subquery(self, orders_session):
        _rejected(orders_session, "select name from customer where id in "
                  "(select cust from orders) order by name", _SUBQUERY)

    def test_not_in_subquery_with_null_is_empty(self, orders_session):
        _rejected(orders_session, "select count(*) from customer "
                  "where id not in (select cust from orders)", _SUBQUERY)

    def test_not_in_subquery_without_nulls(self, orders_session):
        _rejected(orders_session, "select name from customer where id "
                  "not in (select cust from orders where cust is not null)",
                  _SUBQUERY)

    def test_empty_in_subquery(self, orders_session):
        _rejected(orders_session, "select count(*) from customer where id "
                  "in (select cust from orders where total > 10000)",
                  _SUBQUERY)

    def test_empty_not_in_subquery_matches_all(self, orders_session):
        _rejected(orders_session, "select count(*) from customer where id "
                  "not in (select cust from orders where total > 10000)",
                  _SUBQUERY)

    def test_scalar_subquery_zero_rows_is_null(self, orders_session):
        _rejected(orders_session, "select count(*) from customer where id "
                  "= (select cust from orders where total > 10000)",
                  _SUBQUERY)

    def test_scalar_subquery_multiple_rows_rejected(self, orders_session):
        _rejected(orders_session, "select id from customer where id = "
                  "(select cust from orders)", _SUBQUERY)

    def test_multi_column_subquery_rejected(self, orders_session):
        _rejected(orders_session, "select id from customer where id in "
                  "(select id, cust from orders)", _SUBQUERY)

    def test_correlated_subquery_rejected(self, orders_session):
        _rejected(orders_session, "select name from customer c where "
                  "c.id = (select max(cust) from orders where cust = c.id)",
                  _SUBQUERY)

    def test_nested_subqueries(self, orders_session):
        _rejected(orders_session, "select name from customer where id in "
                  "(select cust from orders where total = "
                  "(select max(total) from orders))", _SUBQUERY)

    def test_update_with_subquery(self, orders_session):
        _rejected(orders_session, "update orders set total = 0 where "
                  "total < (select avg(total) from orders)", _SUBQUERY)

    def test_delete_with_subquery(self, orders_session):
        _rejected(orders_session, "delete from orders where total = "
                  "(select min(total) from orders)", _SUBQUERY)

    def test_subquery_statements_not_plan_cached(self, orders_session):
        text = ("select id from orders where total = "
                "(select max(total) from orders)")
        counters = (orders_session.plan_cache_hits,
                    orders_session.plan_cache_misses)
        for _ in range(2):
            with pytest.raises(ParseError, match=_SUBQUERY):
                orders_session.execute(text)
        assert (orders_session.plan_cache_hits,
                orders_session.plan_cache_misses) == counters

    def test_subquery_inside_plain_in_list_mix(self, orders_session):
        _rejected(orders_session, "select count(*) from orders where total "
                  "between (select min(total) from orders) and 75",
                  _SUBQUERY)


class TestExplainStatement:
    def test_explain_returns_plan_rows(self, orders_session):
        result = orders_session.execute(
            "explain select * from orders where id = 10")
        assert result.columns == ("plan",)
        text = "\n".join(row[0] for row in result.rows)
        assert "Project" in text

    def test_explain_does_not_execute(self, orders_session):
        before = orders_session.execute(
            "select count(*) from orders").scalar()
        orders_session.execute("explain select count(*) from orders")
        assert orders_session.execute(
            "select count(*) from orders").scalar() == before

    def test_explain_rejects_dml(self, orders_session):
        with pytest.raises(ParseError):
            parse_statement("explain delete from orders")
