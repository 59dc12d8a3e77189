"""Tests for join enumeration: DP, greedy fallback, method choice."""

import pytest

from repro.catalog.schema import IndexDef
from repro.optimizer import join_order, plans
from repro.optimizer.optimizer import Optimizer
from repro.sql.parser import parse_statement


@pytest.fixture
def star_db(engine):
    """A star schema: fact table with three small dimensions."""
    engine.create_database("star")
    session = engine.connect("star")
    session.execute("create table fact (id int not null, d1 int, d2 int, "
                    "d3 int, value float, primary key (id))")
    for dim in ("dim1", "dim2", "dim3"):
        session.execute(f"create table {dim} (id int not null, "
                        f"label varchar(10), primary key (id))")
        values = ", ".join(f"({i}, 'l{i}')" for i in range(20))
        session.execute(f"insert into {dim} values {values}")
    values = ", ".join(
        f"({i}, {i % 20}, {(i * 3) % 20}, {(i * 7) % 20}, {i * 1.0})"
        for i in range(600))
    session.execute(f"insert into fact values {values}")
    for table in ("fact", "dim1", "dim2", "dim3"):
        session.execute(f"create statistics on {table}")
    return engine.database("star"), session


def optimize(db, sql):
    return Optimizer(db).optimize_select(parse_statement(sql))


class TestJoinMethods:
    def test_star_join_covers_all(self, star_db):
        db, _session = star_db
        result = optimize(
            db,
            "select count(*) from fact f "
            "join dim1 a on f.d1 = a.id "
            "join dim2 b on f.d2 = b.id "
            "join dim3 c on f.d3 = c.id")
        assert set(result.referenced_tables) == {"fact", "dim1", "dim2",
                                                 "dim3"}
        joins = [n for n in result.plan.walk()
                 if isinstance(n, (plans.HashJoinPlan,
                                   plans.NestedLoopJoinPlan,
                                   plans.IndexLookupJoinPlan))]
        assert len(joins) == 3

    def test_equi_join_prefers_hash_or_lookup_over_nlj(self, star_db):
        db, _session = star_db
        result = optimize(
            db, "select count(*) from fact f join dim1 a on f.d1 = a.id")
        nljs = [n for n in result.plan.walk()
                if isinstance(n, plans.NestedLoopJoinPlan)]
        assert not nljs  # 600x20 comparisons would be silly

    def test_non_equi_join_uses_nlj(self, star_db):
        db, _session = star_db
        result = optimize(
            db, "select count(*) from dim1 a join dim2 b on a.id < b.id")
        assert any(isinstance(n, plans.NestedLoopJoinPlan)
                   for n in result.plan.walk())

    def test_lookup_join_via_primary_btree(self, star_db):
        db, session = star_db
        # the inner side must be big enough that per-probe descents beat
        # building a hash table over the whole relation
        session.execute("create table big_dim (id int not null, "
                        "label varchar(10), primary key (id))")
        values = ", ".join(f"({i}, 'x{i % 50}')" for i in range(5000))
        session.execute(f"insert into big_dim values {values}")
        session.execute("modify big_dim to btree")
        session.execute("create statistics on big_dim")
        result = optimize(
            db,
            "select a.label from fact f join big_dim a on f.d1 = a.id "
            "where f.value < 5.0")
        lookups = [n for n in result.plan.walk()
                   if isinstance(n, plans.IndexLookupJoinPlan)]
        assert lookups
        assert lookups[0].via_index is None  # primary structure

    def test_lookup_join_via_secondary_index(self, star_db):
        db, session = star_db
        db.create_index(IndexDef("i_d1", "fact", ("d1",)))
        session.execute("create statistics on fact")
        result = optimize(
            db,
            "select f.value from dim1 a join fact f on a.id = f.d1 "
            "where a.label = 'l3'")
        lookups = [n for n in result.plan.walk()
                   if isinstance(n, plans.IndexLookupJoinPlan)]
        if lookups:  # the optimizer may still prefer hash at this scale
            assert lookups[0].via_index == "i_d1"

    def test_greedy_fallback_beyond_threshold(self, star_db, monkeypatch):
        db, _session = star_db
        monkeypatch.setattr(join_order, "JOIN_DP_THRESHOLD", 2)
        result = optimize(
            db,
            "select count(*) from fact f "
            "join dim1 a on f.d1 = a.id "
            "join dim2 b on f.d2 = b.id "
            "join dim3 c on f.d3 = c.id")
        assert result.estimated_rows >= 1

    def test_greedy_matches_dp_result_volume(self, star_db, monkeypatch):
        db, session = star_db
        sql = ("select count(*) from fact f "
               "join dim1 a on f.d1 = a.id "
               "join dim2 b on f.d2 = b.id "
               "join dim3 c on f.d3 = c.id")
        dp_rows = session.execute(sql).scalar()
        monkeypatch.setattr(join_order, "JOIN_DP_THRESHOLD", 1)
        greedy = optimize(db, sql)
        from repro.execution.executor import Executor
        executor = Executor(db, db.pool, db.disk)
        greedy_rows = executor.execute(greedy.plan,
                                       greedy.output_names).rows[0][0]
        assert greedy_rows == dp_rows

    def test_disconnected_tables_cross_join(self, star_db):
        db, session = star_db
        result = optimize(db, "select count(*) from dim1, dim2")
        assert session.execute(
            "select count(*) from dim1, dim2").scalar() == 400

    def test_three_way_disconnected(self, star_db):
        db, session = star_db
        assert session.execute(
            "select count(*) from dim1, dim2, dim3").scalar() == 8000

    def test_cost_estimates_monotone_with_inputs(self, star_db):
        db, _session = star_db
        small = optimize(db, "select count(*) from dim1")
        large = optimize(
            db, "select count(*) from fact f join dim1 a on f.d1 = a.id")
        assert large.estimated_cost.total > small.estimated_cost.total
