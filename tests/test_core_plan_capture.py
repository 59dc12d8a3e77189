"""Tests for AWR-style expensive-statement plan capture."""

from repro.config import EngineConfig, MonitorConfig
from repro.core import monitor as monitor_module
from repro.core.sensors import statement_key
from repro.optimizer.plans import (HashJoinPlan, SeqScanPlan, format_misses,
                                   node_estimates, parse_misses, q_error)
from repro.sql import ast_nodes as ast
from repro.setups import daemon_setup, monitoring_setup
from repro.sql.parser import parse_statement
from repro.workloads import NrefScale, load_nref


def make_setup(monkeypatch, min_cost=50.0):
    monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", min_cost)
    setup = monitoring_setup()
    setup.engine.create_database("db")
    load_nref(setup.engine.database("db"), NrefScale(proteins=200))
    return setup


class TestPlanCapture:
    def test_expensive_statement_plan_captured(self, monkeypatch):
        setup = make_setup(monkeypatch, min_cost=10.0)
        session = setup.engine.connect("db")
        sql = ("select p.name from protein p join organism o "
               "on p.nref_id = o.nref_id")
        session.execute(sql)
        record = setup.monitor.plans.get(statement_key(sql))
        assert record is not None
        assert "Join" in record.plan_text
        assert record.estimated_cost >= 10.0

    def test_cheap_statement_not_captured(self, monkeypatch):
        setup = make_setup(monkeypatch, min_cost=1e9)
        session = setup.engine.connect("db")
        session.execute("select count(*) from source")
        assert len(setup.monitor.plans) == 0

    def test_repeats_do_not_recapture(self, monkeypatch):
        setup = make_setup(monkeypatch, min_cost=10.0)
        session = setup.engine.connect("db")
        sql = "select count(*) from protein"
        session.execute(sql)
        first = setup.monitor.plans.snapshot()
        session.execute(sql)
        # statement cache short-circuits: not even the seq moves
        assert setup.monitor.plans.snapshot() == first
        assert first[0][1].text_hash == statement_key(sql)

    def test_plans_queryable_via_ima_and_persisted(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 10.0)
        setup = daemon_setup("db")
        load_nref(setup.engine.database("db"), NrefScale(proteins=200))
        session = setup.engine.connect("db")
        session.execute("select count(*) from protein where tax_id = 1")
        result = session.execute(
            "select text_hash, plan_text from ima_plans")
        assert result.rows
        assert "SeqScan" in result.rows[0][1]
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert setup.workload_db.row_count("wl_plans") >= 1

    def test_plan_buffer_bounded(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 1.0)
        monkeypatch.setattr(monitor_module, "PLAN_BUFFER_SIZE", 3)
        setup = monitoring_setup()
        setup.engine.create_database("db")
        load_nref(setup.engine.database("db"), NrefScale(proteins=200))
        session = setup.engine.connect("db")
        for tax in range(10):
            session.execute(
                f"select count(*) from protein where tax_id = {tax}")
        assert len(setup.monitor.plans) <= 3


class TestPlanNodes:
    """A plan captured on its first execution ends with the columns of the
    row estimates that missed; later executions count nothing."""

    SQL = ("select p.name from protein p join source src "
           "on p.source_id = src.source_id where src.source_name = 'PDB'")

    def test_first_execution_counts_its_nodes(self, monkeypatch):
        setup = make_setup(monkeypatch, min_cost=10.0)
        session = setup.engine.connect("db")
        result = session.execute(self.SQL)
        plan = session.optimizer.optimize_select(
            parse_statement(self.SQL)).plan
        nodes = {columns: (estimate, actual, miss) for _operator, columns,
                 estimate, actual, miss in node_estimates(
                     plan, {id(node): 0 for node in plan.walk()})}
        assert set(nodes) == {"protein.source_id,source.source_id",
                              "source.source_name"}
        text = setup.monitor.plans.get(statement_key(self.SQL)).plan_text
        assert text.startswith(plan.explain() + "\nrow misses:")
        # No statistics: the filter on source_name is estimated at a
        # tenth of a row and finds one.
        assert "source.source_name:" in text
        assert "source.source_name" in parse_misses(text)
        assert len(result.rows) > 0

    def test_the_cached_path_counts_nothing(self, monkeypatch):
        setup = make_setup(monkeypatch, min_cost=10.0)
        session = setup.engine.connect("db")
        session.execute(self.SQL)
        first = setup.monitor.plans.snapshot()
        assert parse_misses(first[0][1].plan_text) is not None
        session.execute(self.SQL)
        session.execute(self.SQL.replace("'PDB'", "'TrEMBL'"))
        assert setup.monitor.plans.snapshot() == first

    def test_a_recapture_keeps_the_first_counts(self, monkeypatch):
        """A one-entry statement ring re-logs the shape, and its plan is
        captured again without counting: the first capture's line stays."""
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 10.0)
        setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
            statement_buffer_size=1)))
        setup.engine.create_database("db")
        load_nref(setup.engine.database("db"), NrefScale(proteins=200))
        session = setup.engine.connect("db")
        session.execute(self.SQL)
        first = setup.monitor.plans.get(statement_key(self.SQL))
        session.execute("select count(*) from source")
        session.execute(self.SQL.replace("'PDB'", "'TrEMBL'"))
        again = setup.monitor.plans.get(statement_key(self.SQL))
        assert again.plan_captured_at >= first.plan_captured_at
        assert again.plan_text == first.plan_text
        assert parse_misses(again.plan_text)

    def test_misses_persist_with_the_plan(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 10.0)
        setup = daemon_setup("db")
        load_nref(setup.engine.database("db"), NrefScale(proteins=200))
        setup.engine.connect("db").execute(self.SQL)
        setup.daemon.poll_once()
        setup.daemon.flush()
        texts = [row[3] for _rowid, row in setup.workload_db.database
                 .storage_for("wl_plans").scan()]
        assert any("source.source_name" in (parse_misses(text) or ())
                   for text in texts)


def test_a_nodes_miss_is_its_own():
    """A join whose input was estimated 10x low is charged only for the
    miss its own estimate adds; empty outputs miss only above one row."""
    scan = SeqScanPlan("s", "s", ("a",), filter_expr=ast.BinaryOp(
        "=", ast.ColumnRef("a", "s"), ast.Literal(1)))
    scan.estimated_rows = 2.0
    other = SeqScanPlan("t", "t", ("a",))
    other.estimated_rows = 100.0
    join = HashJoinPlan(scan, other, (ast.ColumnRef("a", "s"),),
                        (ast.ColumnRef("a", "t"),))
    join.estimated_rows = 4.0
    counted = {id(scan): 20, id(other): 100, id(join): 40}
    assert node_estimates(join, counted) == [
        ("HashJoin", "s.a,t.a", 4.0, 40, 1.0),
        ("SeqScan", "s.a", 2.0, 20, 10.0)]
    assert format_misses(node_estimates(join, counted), 4.0) \
        == "\nrow misses: s.a:10"
    assert q_error(0.5, 0) == 1.0 and q_error(5.0, 0) == 5.0
