"""Tests for IMA virtual tables, the workload DB and the storage daemon."""

import pytest

from repro.clock import VirtualClock
from repro.config import DaemonConfig
from repro.core import ima
from repro.core.alerts import (
    add_alert_listener,
    fired_alerts,
    install_standard_alerts,
)
from repro.core.daemon import StorageDaemon
from repro.core.ima import MONITOR_TABLES, WORKLOAD
from repro.core.sensors import statement_key
from repro.core.workload_db import WORKLOAD_TABLES, WorkloadDatabase
from repro.errors import MonitorError
from repro.setups import daemon_setup


@pytest.fixture
def wired():
    """A daemon setup on a virtual clock with a tiny populated table."""
    clock = VirtualClock(1_000_000.0)
    setup = daemon_setup("db", clock=clock,
                         daemon_config=DaemonConfig(poll_interval_s=30.0,
                                                    flush_every_polls=2,
                                                    retention_s=7 * 86400.0))
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, primary key (a))")
    session.execute("insert into t values (1), (2), (3)")
    return setup, session, clock


class TestIma:
    def test_all_ima_tables_registered(self, wired):
        setup, session, _clock = wired
        for table in MONITOR_TABLES:
            result = session.execute(
                f"select count(*) from {table.ima_schema.name}")
            assert result.scalar() >= 0

    def test_ima_statements_queryable_by_sql(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t where a = 1")
        result = session.execute(
            "select query_text, frequency from ima_statements "
            "where query_text like '%where a = 1%'")
        assert result.rows
        assert result.rows[0][1] >= 1

    def test_ima_workload_costs_present(self, wired):
        setup, session, _clock = wired
        session.execute("select count(*) from t")
        text_hash = statement_key("select count(*) from t")
        result = session.execute(
            f"select actual_io, estimated_io from ima_workload "
            f"where text_hash = {text_hash}")
        assert result.rows
        assert result.rows[0][0] > 0

    def test_ima_tables_enriched_with_geometry(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")
        result = session.execute(
            "select structure, data_pages, row_count from ima_tables "
            "where table_name = 't'")
        structure, pages, rows = result.rows[0]
        assert structure == "heap"
        assert pages >= 1
        assert rows == 3

    def test_ima_requires_no_disk_io(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")  # populate buffers
        db = setup.engine.database("db")
        before = db.disk.counters()
        session.execute("select count(*) from ima_statements")
        after = db.disk.counters()
        assert after.reads == before.reads  # in-memory only

    def test_ima_seq_filter(self, wired):
        setup, session, _clock = wired
        session.execute("select a from t")
        monitor = setup.monitor
        top = max(seq for seq, _ in monitor.workload.snapshot())
        assert monitor.workload.snapshot(min_seq=top) == []
        older = monitor.workload.snapshot(min_seq=0)
        assert len(older) >= 1


@pytest.fixture(scope="module")
def every_ring():
    """A monitored database whose statements fill all eight rings: an
    index read, a captured plan and a statistics sample included."""
    setup = daemon_setup("db", clock=VirtualClock(1_000_000.0))
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, b int, primary key (a))")
    session.execute("create index t_b on t (b)")
    session.execute("insert into t values " + ", ".join(
        f"({i}, {i % 7})" for i in range(500)))
    session.execute("select a from t where b = 2")
    session.execute(
        "select x.a, y.b from t x, t y where x.b = y.a order by y.b")
    return setup.monitor, setup.engine.database("db")


class TestCatalogueRecords:
    @pytest.mark.parametrize("table", MONITOR_TABLES, ids=lambda t: t.name)
    def test_ring_holds_the_declared_record(self, every_ring, table):
        """Each ring holds its table's ``record``, the workload ring as
        the bare tuple of its fields; each record's row has the IMA
        columns, and a record its row extends is its leading columns,
        in their order."""
        monitor, database = every_ring
        entries = getattr(monitor, table.name).snapshot()
        assert entries
        fields = table.record._fields
        names = tuple(c.name for c in table.ima_schema.columns[1:])
        for seq, record in entries:
            assert type(record) is (tuple if table is WORKLOAD
                                    else table.record)
            assert len(record) == len(fields)
            row = table.row(seq, record, database)
            assert len(row) == len(table.ima_schema.columns)
            if table is not WORKLOAD:
                assert row[:1 + len(record)] == (seq, *record)
        if table.row is ima._own_row:
            assert fields == names
        elif table is not WORKLOAD:
            assert fields == names[:len(fields)]


class TestWorkloadDatabase:
    def test_tables_created(self):
        wdb = WorkloadDatabase()
        for schema in WORKLOAD_TABLES:
            assert wdb.database.catalog.has_table(schema.name)
        assert wdb.total_rows() == 0

    def test_append_stamps_capture_time(self):
        wdb = WorkloadDatabase()
        wdb.append("wl_indexes", [("idx", "t", 3)], captured_at=123.0)
        rows = [row for _rid, row in
                wdb.database.storage_for("wl_indexes").scan()]
        # Leading capture timestamp, trailing src_seq (0: none supplied).
        assert rows == [(123.0, "idx", "t", 3, 0)]

    def test_append_records_source_seqs(self):
        wdb = WorkloadDatabase()
        wdb.append("wl_indexes", [("a", "t", 1), ("b", "t", 2)],
                   captured_at=5.0, seqs=[7, 9])
        rows = [row for _rid, row in
                wdb.database.storage_for("wl_indexes").scan()]
        assert [row[-1] for row in rows] == [7, 9]
        marks = wdb.load_high_water()
        assert marks["wl_indexes"] == 9
        assert marks["wl_plans"] == 0

    def test_purge_retention(self):
        wdb = WorkloadDatabase()
        wdb.append("wl_indexes", [("old", "t", 1)], captured_at=100.0)
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=200.0)
        removed = wdb.purge_older_than(150.0)
        assert removed == 1
        assert wdb.row_count("wl_indexes") == 1


class TestDaemon:
    def test_poll_collects_and_flushes_on_schedule(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        stats1 = setup.daemon.poll_once()
        assert stats1.rows_collected > 0
        assert not stats1.flushed  # flush_every_polls=2
        assert setup.daemon.pending_rows > 0
        stats2 = setup.daemon.poll_once()
        assert stats2.flushed
        assert setup.daemon.pending_rows == 0
        assert setup.workload_db.total_rows() > 0

    def test_incremental_polls_no_duplicates(self, wired):
        setup, session, clock = wired
        session.execute("select a from t where a = 1")
        setup.daemon.poll_once()
        setup.daemon.flush()
        count_after_first = setup.workload_db.row_count("wl_workload")
        # no new foreground work: second poll only sees the daemon's own
        # ima queries, and the already-captured workload rows are not
        # re-collected
        setup.daemon.poll_once()
        setup.daemon.flush()
        target_hash = statement_key("select a from t where a = 1")
        rows = [row for _rid, row in setup.workload_db.database
                .storage_for("wl_workload").scan()
                if row[1] == target_hash]
        assert len(rows) == 1
        assert setup.workload_db.row_count("wl_workload") \
            >= count_after_first

    def test_idle_poll_does_not_monitor_itself_into_work(self, wired,
                                                         monkeypatch):
        """The poll's statements are a new text every poll (the marks
        move) but eight known shapes: after a warm-up poll they are
        neither parsed nor planned again, and each leaves its one
        workload row plus the refreshed statement record behind —
        counted, not timed."""
        from repro.engine import session as session_module
        setup, session, _clock = wired
        session.execute("select a from t where a = 1")
        setup.daemon.poll_once()  # warm-up: plans the eight statements
        setup.daemon.poll_once()  # ... and sees its own eight shapes
        poller = setup.daemon._ensure_session()
        parses, plans = [], []
        real_parse = session_module.parse_statement
        real_optimize = poller.optimizer.optimize_select
        monkeypatch.setattr(
            session_module, "parse_statement",
            lambda text: parses.append(text) or real_parse(text))
        monkeypatch.setattr(
            poller.optimizer, "optimize_select",
            lambda *args, **kw: plans.append(args) or real_optimize(
                *args, **kw))
        monitor = setup.monitor
        keyed = (monitor.statements, monitor.references, monitor.tables,
                 monitor.attributes, monitor.indexes, monitor.plans)

        def ring_rows():
            return monitor.workload.total_appended + sum(
                len(ring) + ring.evicted for ring in keyed)

        statements = len(MONITOR_TABLES)
        for _ in range(3):
            before = ring_rows(), monitor.workload.total_appended
            hits = poller.plan_cache_hits
            stats = setup.daemon.poll_once()
            assert parses == [] and plans == []
            assert poller.plan_cache_hits == hits + statements
            assert monitor.workload.total_appended == before[1] + statements
            assert ring_rows() - before[0] == statements  # no new keys
            # read back: a workload row and a bumped statement record
            # per poll statement of the *previous* poll
            assert stats.rows_collected <= 2 * statements

    def test_workload_db_holds_what_ima_served(self):
        """Every persisted ``wl_<name>`` row is the ``ima_<name>`` row it
        came from, stamped with the flush time in front and its ``seq``
        behind.  The poll's own statements are monitored too, and a
        keyed ring re-sequences an entry it bumps, so rows are matched
        by seq, and only while that seq is still live."""
        clock = VirtualClock(1_000_000.0)
        setup = daemon_setup("db", clock=clock)
        session = setup.engine.connect("db")
        session.execute(
            "create table t (a int not null, b int, primary key (a))")
        session.execute("create index t_b on t (b)")
        session.execute("insert into t values " + ", ".join(
            f"({i}, {i % 7})" for i in range(2000)))
        session.execute("update t set b = 3 where a = 5")
        session.execute("delete from t where a = 6")
        session.execute("select a from t where b = 2")
        # Costly enough for the monitor to capture its plan.
        session.execute(
            "select x.a, y.b from t x, t y where x.b = y.a order by y.b")
        clock.advance(2.0)  # a second statistics sample falls due
        session.execute("select count(*) from t")
        captured_at = clock.now()
        setup.daemon.poll_once()
        setup.daemon.flush()
        for table in MONITOR_TABLES:
            served = {row[0]: row for row in session.execute(
                f"select * from {table.ima_schema.name}").rows}
            storage = setup.workload_db.database.storage_for(
                table.wl_schema.name)
            matched = 0
            for _rowid, row in storage.scan():
                ima_row = served.get(row[-1])
                if ima_row is None:
                    continue  # re-sequenced since the poll read it
                assert row == (captured_at, *ima_row[1:], ima_row[0]), \
                    table.name
                matched += 1
            assert matched, table.name

    def test_retention_purges_old_history(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        rows_before = setup.workload_db.total_rows()
        assert rows_before > 0
        clock.advance(8 * 86400.0)  # past the 7-day retention
        setup.daemon.poll_once()
        written, purged = setup.daemon.flush()
        assert purged >= rows_before

    def test_daemon_counters(self, wired):
        setup, session, clock = wired
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert setup.daemon.status().cycles == 1
        assert setup.daemon.total_rows_flushed > 0

    def test_start_twice_rejected(self, wired):
        setup, _session, _clock = wired
        setup.daemon.start()
        try:
            with pytest.raises(MonitorError):
                setup.daemon.start()
        finally:
            setup.daemon.stop(final_flush=False)

    def test_crash_recovery_round_trip(self, wired):
        """Kill the daemon mid-flush, restart fresh, no dup / no loss."""
        from repro import faultsim

        setup, session, _clock = wired
        session.execute("select a from t where a = 2")
        setup.daemon.poll_once()
        # The third table's append fails: the flush dies with a clean
        # persisted prefix, like a daemon killed mid-write.
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            setup.daemon.flush()
        assert setup.workload_db.total_rows() > 0  # prefix persisted
        # Restart: a brand-new daemon adopts the persisted high-water
        # marks in __init__ and re-reads only what the crash lost.
        reborn = StorageDaemon(setup.engine, "db", setup.workload_db,
                               config=setup.daemon.config)
        reborn.poll_once()
        reborn.flush()
        for schema in WORKLOAD_TABLES:
            storage = setup.workload_db.database.storage_for(schema.name)
            seqs = [row[-1] for _rid, row in storage.scan()]
            assert len(seqs) == len(set(seqs)), f"{schema.name} duplicated"
        target_hash = statement_key("select a from t where a = 2")
        rows = [row for _rid, row in setup.workload_db.database
                .storage_for("wl_workload").scan()
                if row[1] == target_hash]
        assert len(rows) == 1  # persisted exactly once across the crash

    def test_background_thread_runs(self):
        setup = daemon_setup(
            "bg", daemon_config=DaemonConfig(poll_interval_s=0.02,
                                             flush_every_polls=1))
        session = setup.engine.connect("bg")
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        setup.daemon.start()
        import time
        time.sleep(0.3)
        setup.daemon.stop()
        assert setup.daemon.status().cycles >= 2
        assert setup.workload_db.total_rows() > 0


class TestAlerts:
    def test_standard_alerts_fire(self, wired):
        setup, session, clock = wired
        install_standard_alerts(setup.workload_db, max_sessions=1)
        seen = []
        add_alert_listener(setup.workload_db, seen.append)
        session.execute("select a from t")
        setup.daemon.poll_once()
        setup.daemon.flush()
        names = {a.trigger_name for a in fired_alerts(setup.workload_db)}
        assert "alert_max_sessions" in names  # >= 1 session active
        assert seen  # listener invoked

    def test_overflow_alert(self, wired):
        setup, session, clock = wired
        install_standard_alerts(setup.workload_db)
        session.execute("create table big (a int not null, primary key (a)) "
                        "with main_pages = 1")
        values = ", ".join(f"({i})" for i in range(3000))
        session.execute(f"insert into big values {values}")
        session.execute("select count(*) from big")
        setup.daemon.poll_once()
        setup.daemon.flush()
        names = {a.trigger_name for a in fired_alerts(setup.workload_db)}
        assert "alert_overflow_pages" in names
