"""Error-path coverage: bad SQL, bad references, daemon resilience."""

import pytest

from repro.config import DaemonConfig
from repro.errors import (
    ExecutionError,
    OptimizerError,
    ParseError,
    ReproError,
    UnknownObjectError,
)
from repro.setups import daemon_setup


class TestSqlErrorMessages:
    @pytest.mark.parametrize("bad_sql", [
        "select",
        "select from t",
        "select * from",
        "select a from t where",
        "insert into t",
        "insert into t values",
        "update t set",
        "delete t",
        "create table t",
        "create index on t (a)",
        "modify t",
        "grant all to bob",
        "select a from t limit 'x'",
        "select a from t group by",
        "create trigger x on t when raise 'm'",
    ])
    def test_bad_statements_raise_parse_errors(self, session, bad_sql):
        with pytest.raises(ParseError):
            session.execute(bad_sql)

    def test_parse_error_mentions_offset(self, session):
        with pytest.raises(ParseError) as excinfo:
            session.execute("select a frm t")
        assert "offset" in str(excinfo.value)


class TestSemanticErrors:
    def test_unknown_table(self, people_session):
        with pytest.raises(UnknownObjectError):
            people_session.execute("select * from ghost")

    def test_unknown_column(self, people_session):
        with pytest.raises(OptimizerError):
            people_session.execute("select ghost from people")

    def test_ambiguous_column(self, people_session):
        people_session.execute("create table clone (id int, name varchar(5))")
        with pytest.raises(OptimizerError):
            people_session.execute(
                "select id from people, clone")

    def test_unknown_binding_qualifier(self, people_session):
        with pytest.raises(OptimizerError):
            people_session.execute("select x.id from people p")

    def test_insert_unknown_column(self, people_session):
        with pytest.raises(ReproError):
            people_session.execute(
                "insert into people (ghost) values (1)")

    def test_update_unknown_column(self, people_session):
        with pytest.raises(ReproError):
            people_session.execute("update people set ghost = 1")

    def test_drop_missing_objects(self, session):
        with pytest.raises(UnknownObjectError):
            session.execute("drop table ghost")
        with pytest.raises(UnknownObjectError):
            session.execute("drop index ghost")
        with pytest.raises(UnknownObjectError):
            session.execute("drop trigger ghost")

    def test_statistics_on_unknown_column(self, people_session):
        with pytest.raises(UnknownObjectError):
            people_session.execute("create statistics on people (ghost)")

    def test_group_by_aggregate_misuse(self, people_session):
        # non-grouped column referenced outside aggregates
        with pytest.raises(ExecutionError):
            people_session.execute(
                "select name, count(*) from people group by age")

    def test_failed_statement_leaves_engine_usable(self, people_session):
        with pytest.raises(UnknownObjectError):
            people_session.execute("select * from ghost")
        assert people_session.execute(
            "select count(*) from people").scalar() == 200

    def test_failed_statement_releases_locks(self, people_session):
        with pytest.raises(ReproError):
            people_session.execute(
                "insert into people values (1, 'dup', 1, 1.0)")
        stats = people_session.engine.lock_manager.statistics()
        assert stats.locks_held == 0


class TestDaemonResilience:
    def test_background_daemon_survives_workload_db_trouble(self):
        import time
        setup = daemon_setup(
            "db", daemon_config=DaemonConfig(poll_interval_s=0.02,
                                             flush_every_polls=1))
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        # sabotage one poll by making the IMA session raise: drop the
        # workload table the daemon writes to mid-flight
        setup.daemon.start()
        time.sleep(0.1)
        # even after transient failures, polls continue
        polls_before = setup.daemon.status().cycles
        time.sleep(0.1)
        setup.daemon.stop()
        assert setup.daemon.status().cycles > polls_before

    def test_poll_on_closed_session_reopens(self):
        setup = daemon_setup("db")
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        setup.daemon.poll_once()
        setup.daemon._session.close()
        stats = setup.daemon.poll_once()  # re-connects transparently
        assert stats is not None
