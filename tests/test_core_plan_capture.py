"""Tests for AWR-style expensive-statement plan capture."""

from repro.core import monitor as monitor_module
from repro.core.sensors import statement_key
from repro.setups import daemon_setup, monitoring_setup
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
        first = setup.monitor.plans.get(statement_key(sql))
        session.execute(sql)
        second = setup.monitor.plans.get(statement_key(sql))
        assert first is second  # statement cache short-circuits

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
