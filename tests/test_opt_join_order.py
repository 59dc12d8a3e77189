"""Tests for join enumeration: DP and method choice."""

import re

import pytest

from perf import workloads
from repro.catalog.schema import IndexDef
from repro.engine import EngineInstance
from repro.errors import OptimizerError
from repro.execution.executor import Executor
from repro.optimizer import join_order, plans
from repro.optimizer.optimizer import Optimizer
from repro.sql.parser import parse_statement
from repro.workloads import (NREF_TABLE_NAMES, NrefScale, complex_query_set,
                             load_nref)


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


STAR_JOIN = ("select count(*) from fact f "
             "join dim1 a on f.d1 = a.id "
             "join dim2 b on f.d2 = b.id "
             "join dim3 c on f.d3 = c.id")


def optimize(db, sql):
    return Optimizer(db).optimize_select(parse_statement(sql))


class TestJoinMethods:
    def test_star_join_covers_all(self, star_db):
        db, _session = star_db
        result = optimize(db, STAR_JOIN)
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
        """Beyond the DP limit there is no fallback: the FROM is rejected."""
        db, _session = star_db
        monkeypatch.setattr(join_order, "MAX_JOIN_INPUTS", 3)
        with pytest.raises(OptimizerError, match="a FROM of 4 tables"):
            optimize(db, STAR_JOIN)

    def test_greedy_matches_dp_result_volume(self, star_db, monkeypatch):
        """The limit is inclusive: a FROM of exactly MAX_JOIN_INPUTS
        tables is planned by DP and counts what the session counts."""
        db, session = star_db
        rows = session.execute(STAR_JOIN).scalar()
        monkeypatch.setattr(join_order, "MAX_JOIN_INPUTS", 4)
        result = optimize(db, STAR_JOIN)
        executor = Executor(db, db.pool)
        assert executor.execute(
            result.plan, result.output_names).rows == [(rows,)]
        assert rows == 600

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


# -- the workloads' joins -----------------------------------------------------

# Figure 7's scale (benchmarks/conftest.py's BENCH_SCALE) and its queries.
FIG7_SCALE = NrefScale(proteins=2000)
FIG7_QUERIES = complex_query_set(FIG7_SCALE, count=50)
EQUALITY = re.compile(r"\b([a-z_]\w*)\.\w+ = ([a-z_]\w*)\.\w+")


def _nref_engine(proteins):
    engine = EngineInstance()
    engine.create_database("nref")
    load_nref(engine.database("nref"), NrefScale(proteins=proteins))
    return engine


def _equi_nested_loops(db, text):
    """The equalities of ``text`` between two bindings that some nested
    loop of its plan has on opposite sides."""
    edges = {frozenset(pair) for pair in EQUALITY.findall(text)}
    found = []
    for node in optimize(db, text).plan.walk():
        if isinstance(node, plans.NestedLoopJoinPlan):
            left = {binding for binding, _ in node.left.scope}
            right = {binding for binding, _ in node.right.scope}
            found += [edge for edge in edges if edge & left and edge & right]
    return found


@pytest.mark.parametrize("statistics", [False, True],
                         ids=["no-statistics", "statistics"])
def test_no_workload_join_is_an_equi_nested_loop(statistics):
    """Figure 7's 50 queries and the 12 ``complex_joins`` templates, each
    on its own database, with and without statistics on all six tables."""
    cases = [(_nref_engine(FIG7_SCALE.proteins), FIG7_QUERIES),
             (_nref_engine(workloads.SIZES["complex_joins"].proteins),
              workloads.build("complex_joins", 1, 1).chunks[0][:12])]
    for engine, texts in cases:
        with engine.connect("nref") as session:
            for table in NREF_TABLE_NAMES if statistics else ():
                session.execute(f"create statistics on {table}")
        db = engine.database("nref")
        assert len([text for text in texts if EQUALITY.search(text)]) >= 10
        assert [text for text in texts if _equi_nested_loops(db, text)] == []


def test_a_prepared_plan_reused_for_a_heavy_literal():
    """Figure 7's queries 4, 16, 28 and 40 are one shape, ``p.tax_id = ?``,
    planned for query 4's light literal (3 rows estimated with
    statistics) and reused for query 28's heavy one (1 096 proteins).
    The reused plan does no more work than a fresh plan for it."""
    engine = _nref_engine(FIG7_SCALE.proteins)
    with engine.connect("nref") as session:
        for table in NREF_TABLE_NAMES:
            session.execute(f"create statistics on {table}")
        reused = {i: session.execute(FIG7_QUERIES[i]).metrics
                  for i in (4, 16, 28, 40)}
        assert session.plan_cache_hits == 3
    with engine.connect("nref") as fresh:
        planned = fresh.execute(FIG7_QUERIES[28]).metrics
    assert planned.tuples_processed == 17_538
    assert reused[28].tuples_processed <= planned.tuples_processed
    assert reused[28].rows_returned == planned.rows_returned
