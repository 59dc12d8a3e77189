"""IMA registered in a dedicated monitoring database (the paper allows
IMA objects to be registered in any database)."""

import pytest

from repro.core.ima import register_ima_tables
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.engine import EngineInstance


@pytest.fixture
def split_setup():
    engine = EngineInstance()
    monitor = IntegratedMonitor(engine.config.monitor, engine.clock)
    engine.sensors = MonitorSensors(monitor)
    user_db = engine.create_database("userdb")
    imadb = engine.create_database("imadb")
    # IMA lives in imadb but reports on userdb's catalogs
    register_ima_tables(imadb, monitor, monitored_database=user_db)
    return engine, monitor


class TestSeparateImaDatabase:
    def test_monitor_data_visible_from_ima_db(self, split_setup):
        engine, monitor = split_setup
        user = engine.connect("userdb")
        user.execute("create table t (a int not null, primary key (a))")
        user.execute("insert into t values (1), (2)")
        user.execute("select count(*) from t")
        ima = engine.connect("imadb")
        result = ima.execute(
            "select query_text from ima_statements "
            "where query_text like '%count%'")
        assert result.rows

    def test_geometry_enriched_from_monitored_db(self, split_setup):
        engine, _monitor = split_setup
        user = engine.connect("userdb")
        user.execute("create table t (a int not null, primary key (a)) "
                     "with main_pages = 1")
        values = ", ".join(f"({i})" for i in range(2000))
        user.execute(f"insert into t values {values}")
        user.execute("select count(*) from t")
        ima = engine.connect("imadb")
        result = ima.execute(
            "select data_pages, overflow_pages, row_count from ima_tables "
            "where table_name = 't'")
        pages, overflow, rows = result.rows[0]
        assert rows == 2000
        assert overflow == pages - 1

    def test_user_db_has_no_ima_tables(self, split_setup):
        engine, _monitor = split_setup
        user_db = engine.database("userdb")
        assert not user_db.catalog.has_table("ima_statements")

    def test_ima_queries_monitored_too(self, split_setup):
        # reading IMA goes through the normal pipeline, so the monitor
        # also sees the monitoring queries — as in the real system
        engine, monitor = split_setup
        ima = engine.connect("imadb")
        ima.execute("select count(*) from ima_statements")
        from repro.core.sensors import statement_key
        assert monitor.statements.get(
            statement_key("select count(*) from ima_statements")) is not None
