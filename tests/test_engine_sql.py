"""End-to-end SQL semantics through the full session pipeline."""

import pytest

from repro.catalog.schema import StorageStructure
from repro.errors import (
    ExecutionError,
    ReproError,
    SqlError,
    StorageError,
    UnknownObjectError,
)


class TestSelectBasics:
    def test_select_literal(self, session):
        assert session.execute("select 1 + 1").rows == [(2,)]

    def test_select_star(self, people_session):
        result = people_session.execute("select * from people limit 3")
        assert result.columns == ("id", "name", "age", "score")
        assert len(result.rows) == 3

    def test_projection_and_alias(self, people_session):
        result = people_session.execute(
            "select id, age * 2 as double_age from people where id = 5")
        assert result.columns == ("id", "double_age")
        assert result.rows == [(5, 50)]

    def test_where_filtering(self, people_session):
        result = people_session.execute(
            "select count(*) from people where age >= 60")
        expected = sum(1 for i in range(1, 201) if 20 + i % 50 >= 60)
        assert result.scalar() == expected

    def test_order_by_and_limit(self, people_session):
        result = people_session.execute(
            "select id from people order by id desc limit 4 offset 1")
        assert [r[0] for r in result.rows] == [199, 198, 197, 196]

    def test_order_by_alias(self, people_session):
        result = people_session.execute(
            "select id, score * 2 as doubled from people "
            "order by doubled desc limit 1")
        assert result.rows[0][0] == 200

    def test_order_by_ordinal(self, people_session):
        result = people_session.execute(
            "select name, id from people order by 2 limit 1")
        assert result.rows[0] == ("person1", 1)

    def test_distinct(self, people_session):
        result = people_session.execute("select distinct age from people")
        ages = [r[0] for r in result.rows]
        assert len(ages) == len(set(ages)) == 50

    def test_like(self, people_session):
        result = people_session.execute(
            "select count(*) from people where name like 'person1_'")
        assert result.scalar() == 10  # person10..person19

    def test_in_and_between(self, people_session):
        result = people_session.execute(
            "select count(*) from people where id in (1, 2, 3) "
            "or id between 10 and 12")
        assert result.scalar() == 6

    def test_scalar_requires_1x1(self, people_session):
        result = people_session.execute("select id from people limit 2")
        with pytest.raises(ExecutionError):
            result.scalar()

    def test_as_dicts(self, people_session):
        result = people_session.execute(
            "select id, name from people where id = 1")
        assert result.as_dicts() == [{"id": 1, "name": "person1"}]


class TestAggregation:
    def test_count_sum_avg_min_max(self, people_session):
        result = people_session.execute(
            "select count(*), sum(id), avg(id), min(id), max(id) from people")
        count, total, avg, low, high = result.rows[0]
        assert (count, total, low, high) == (200, 20100, 1, 200)
        assert avg == pytest.approx(100.5)

    def test_group_by(self, people_session):
        result = people_session.execute(
            "select age, count(*) from people group by age order by age")
        assert len(result.rows) == 50
        assert all(count == 4 for _age, count in result.rows)

    def test_having(self, people_session):
        result = people_session.execute(
            "select age, count(*) c from people where id <= 10 "
            "group by age having count(*) > 1")
        assert result.rows == []

    def test_group_by_expression(self, people_session):
        result = people_session.execute(
            "select id % 2, count(*) from people group by id % 2 "
            "order by id % 2")
        assert result.rows == [(0, 100), (1, 100)]

    def test_count_distinct(self, people_session):
        result = people_session.execute(
            "select count(distinct age) from people")
        assert result.scalar() == 50

    def test_aggregate_on_empty_input(self, session):
        session.execute("create table empty_t (a int)")
        result = session.execute(
            "select count(*), sum(a), min(a) from empty_t")
        assert result.rows == [(0, None, None)]

    def test_group_by_on_empty_input(self, session):
        session.execute("create table empty_g (a int)")
        result = session.execute(
            "select a, count(*) from empty_g group by a")
        assert result.rows == []

    def test_aggregates_ignore_nulls(self, session):
        session.execute("create table n (a int)")
        session.execute("insert into n values (1), (null), (3)")
        result = session.execute("select count(a), avg(a) from n")
        assert result.rows == [(2, 2.0)]

    def test_order_by_aggregate(self, people_session):
        result = people_session.execute(
            "select age, count(*) from people group by age "
            "order by count(*) desc, age limit 1")
        assert result.rows[0][1] == 4


class TestJoins:
    @pytest.fixture
    def pair_session(self, session):
        session.execute("create table a (id int not null, v varchar(10), "
                        "primary key (id))")
        session.execute("create table b (id int not null, aid int, "
                        "w varchar(10), primary key (id))")
        session.execute("insert into a values (1, 'x'), (2, 'y'), (3, 'z')")
        session.execute(
            "insert into b values (10, 1, 'p'), (11, 1, 'q'), (12, 2, 'r'), "
            "(13, 99, 's')")
        return session

    def test_inner_join(self, pair_session):
        result = pair_session.execute(
            "select a.v, b.w from a join b on a.id = b.aid order by b.id")
        assert result.rows == [("x", "p"), ("x", "q"), ("y", "r")]

    def test_join_with_filter(self, pair_session):
        result = pair_session.execute(
            "select b.w from a join b on a.id = b.aid where a.v = 'x' "
            "order by b.w")
        assert result.rows == [("p",), ("q",)]

    def test_cross_join(self, pair_session):
        result = pair_session.execute("select count(*) from a, b")
        assert result.scalar() == 12

    def test_comma_join_with_where(self, pair_session):
        result = pair_session.execute(
            "select count(*) from a, b where a.id = b.aid")
        assert result.scalar() == 3

    def test_non_equi_join_condition(self, pair_session):
        result = pair_session.execute(
            "select count(*) from a join b on a.id < b.aid")
        assert result.scalar() == 4  # (1<2) plus aid 99 pairing with all three

    def test_null_join_keys_never_match(self, pair_session):
        pair_session.execute("insert into b values (14, null, 'n')")
        result = pair_session.execute(
            "select count(*) from a join b on a.id = b.aid")
        assert result.scalar() == 3

    def test_three_way_join(self, pair_session):
        pair_session.execute("create table c (aid int, tag varchar(5))")
        pair_session.execute("insert into c values (1, 't1'), (2, 't2')")
        result = pair_session.execute(
            "select a.v, c.tag from a join b on a.id = b.aid "
            "join c on a.id = c.aid where b.w = 'r'")
        assert result.rows == [("y", "t2")]


class TestDml:
    def test_insert_with_columns_fills_nulls(self, session):
        session.execute("create table t (a int, b varchar(5), c float)")
        session.execute("insert into t (c, a) values (1.5, 2)")
        assert session.execute("select * from t").rows == [(2, None, 1.5)]

    def test_insert_arity_mismatch(self, session):
        session.execute("create table t (a int, b int)")
        with pytest.raises(ExecutionError):
            session.execute("insert into t values (1)")

    def test_update_with_expression(self, people_session):
        people_session.execute(
            "update people set age = age + 100 where id <= 3")
        result = people_session.execute(
            "select count(*) from people where age > 100")
        assert result.scalar() == 3

    def test_update_rowcount(self, people_session):
        result = people_session.execute(
            "update people set score = 0.0 where id between 1 and 10")
        assert result.rowcount == 10

    def test_delete(self, people_session):
        people_session.execute("delete from people where id > 190")
        assert people_session.execute(
            "select count(*) from people").scalar() == 190

    def test_delete_all(self, people_session):
        result = people_session.execute("delete from people")
        assert result.rowcount == 200
        assert people_session.execute(
            "select count(*) from people").scalar() == 0

    def test_primary_key_violation(self, people_session):
        with pytest.raises(StorageError):
            people_session.execute(
                "insert into people values (1, 'dup', 1, 1.0)")

    def test_not_null_violation(self, people_session):
        with pytest.raises(ReproError):
            people_session.execute(
                "insert into people values (null, 'x', 1, 1.0)")


class TestDdl:
    def test_create_insert_drop(self, session):
        session.execute("create table tmp (a int)")
        session.execute("insert into tmp values (1)")
        session.execute("drop table tmp")
        with pytest.raises(UnknownObjectError):
            session.execute("select * from tmp")

    def test_create_index_and_use(self, people_session):
        people_session.execute("create index i_age on people (age)")
        result = people_session.execute(
            "select count(*) from people where age = 25")
        assert result.scalar() == 4

    def test_unique_index_enforced(self, people_session):
        people_session.execute(
            "create unique index u_name on people (name)")
        with pytest.raises(StorageError):
            people_session.execute(
                "insert into people values (999, 'person5', 1, 1.0)")

    def test_unique_index_rejected_on_duplicate_data(self, people_session):
        people_session.execute(
            "insert into people values (998, 'person5x', 25, 1.0)")
        with pytest.raises(StorageError):
            people_session.execute(
                "create unique index u_age on people (age)")
        # failed build must not leave the index behind
        assert not people_session.database.catalog.has_index("u_age")

    def test_virtual_index_never_executes(self, people_session):
        people_session.execute(
            "create virtual index v_age on people (age)")
        result = people_session.execute(
            "select count(*) from people where age = 25")
        assert result.scalar() == 4  # planned without the virtual index

    def test_modify_to_btree_keeps_queries_working(self, people_session):
        before = people_session.execute(
            "select sum(id) from people").scalar()
        people_session.execute("modify people to btree")
        assert people_session.execute(
            "select sum(id) from people").scalar() == before

    def test_index_survives_modify(self, people_session):
        people_session.execute("create index i_age2 on people (age)")
        people_session.execute("modify people to btree")
        result = people_session.execute(
            "select count(*) from people where age = 30")
        assert result.scalar() == 4

    def test_create_statistics(self, people_session):
        people_session.execute("create statistics on people (age)")
        stats = people_session.database.catalog.table("people").statistics
        assert stats is not None
        assert stats.column("age").histogram is not None
        assert stats.column("name") is None

    @pytest.mark.parametrize("statement", [
        "modify people to hash",
        "create table pets (id int not null, primary key (id)) "
        "with structure = hash",
    ], ids=["modify", "create"])
    def test_unknown_structure(self, people_session, statement):
        people_session.execute("modify people to btree")
        catalog = people_session.database.catalog
        with pytest.raises(SqlError, match="unknown storage structure"):
            people_session.execute(statement)
        assert catalog.table("people").structure is StorageStructure.BTREE
        assert people_session.execute(
            "select sum(id) from people").scalar() == 20100
        assert not catalog.has_table("pets")


class TestTransactions:
    def test_commit_keeps_changes(self, people_session):
        people_session.execute("begin")
        people_session.execute("delete from people where id = 1")
        people_session.execute("commit")
        assert people_session.execute(
            "select count(*) from people where id = 1").scalar() == 0

    def test_rollback_restores_deletes(self, people_session):
        people_session.execute("begin")
        people_session.execute("delete from people where id <= 100")
        people_session.execute("rollback")
        assert people_session.execute(
            "select count(*) from people").scalar() == 200

    def test_rollback_restores_updates(self, people_session):
        people_session.execute("begin")
        people_session.execute("update people set age = 0")
        people_session.execute("rollback")
        assert people_session.execute(
            "select count(*) from people where age = 0").scalar() == 0

    def test_rollback_removes_inserts(self, people_session):
        people_session.execute("begin")
        people_session.execute(
            "insert into people values (900, 'temp', 1, 1.0)")
        people_session.execute("rollback")
        assert people_session.execute(
            "select count(*) from people where id = 900").scalar() == 0

    def test_rollback_restores_indexes_too(self, people_session):
        people_session.execute("create index i_age3 on people (age)")
        people_session.execute("begin")
        people_session.execute("delete from people where age = 25")
        people_session.execute("rollback")
        assert people_session.execute(
            "select count(*) from people where age = 25").scalar() == 4

    def test_nested_begin_rejected(self, people_session):
        people_session.execute("begin")
        with pytest.raises(ReproError):
            people_session.execute("begin")
        people_session.execute("rollback")

    def test_commit_without_begin(self, people_session):
        with pytest.raises(ReproError):
            people_session.execute("commit")

    def test_close_rolls_back_open_transaction(self, engine):
        engine.create_database("txdb")
        session = engine.connect("txdb")
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        session.execute("begin")
        session.execute("delete from t")
        session.close()
        fresh = engine.connect("txdb")
        assert fresh.execute("select count(*) from t").scalar() == 1


class TestExplain:
    def test_explain_select(self, people_session):
        text = people_session.explain("select * from people where id = 1")
        assert "SeqScan" in text or "BTreeScan" in text

    def test_explain_rejects_dml(self, people_session):
        with pytest.raises(ExecutionError):
            people_session.explain("delete from people")
