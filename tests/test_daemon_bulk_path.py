"""The storage daemon's bulk write path and seq-bounded IMA reads: each
must be indistinguishable — in what is persisted, in what a crash
leaves behind, in what a query returns — from the row-at-a-time /
scan-everything code it replaced.  Retention reads only the expired
prefix of each table.

Deterministic like ``test_daemon_recovery.py``: virtual clocks, seeded
contents, no sleeps.
"""

import random
from unittest import mock

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import (
    DaemonConfig,
    EngineConfig,
    MonitorConfig,
)
from repro.core import monitor as monitor_module
from repro.core.alerts import fired_alerts, install_standard_alerts
from repro.core.daemon import StorageDaemon
from repro.core.ima import MONITOR_TABLES, register_ima_tables
from repro.core.records import WorkloadRecord
from repro.core.workload_db import WORKLOAD_TABLES, WorkloadDatabase
from repro.engine import database as database_module
from repro.errors import ReproError, StorageError, TypeMismatchError
from repro.setups import daemon_setup, monitoring_setup, original_setup


def _record(text_hash: int, session_id: int,
            used_indexes: str = "") -> WorkloadRecord:
    return WorkloadRecord(
        text_hash=text_hash, session_id=session_id, timestamp=0.0,
        optimize_time_s=0.0, execute_time_s=0.0, wallclock_s=0.0,
        estimated_io=0.0, estimated_cpu=0.0, actual_io=0.0, actual_cpu=0.0,
        logical_reads=0, physical_reads=0, tuples_processed=0,
        rows_returned=0, used_indexes=used_indexes, monitor_time_s=0.0)


def _workload_seqs(workload_db):
    return [row[-1] for _rowid, row in
            workload_db.database.storage_for("wl_workload").scan()]


# -- crash / ordering -------------------------------------------------------

FIRST_HASH = 500_000
RECORDS = 400
WIDE_AT = 230  # position (in append order) of the one wide record


@mock.patch.object(database_module, "BUFFER_POOL_PAGES", 3)
def _flooded_setup(sessions):
    """A daemon with ``RECORDS`` workload records polled into pending,
    spread round-robin over ``sessions`` sessions; record ``WIDE_AT``
    is ~700 bytes wide, the others ~150.  The three-page pool makes
    every flush evict (and write back) pages mid-batch."""
    config = EngineConfig(daemon=DaemonConfig(flush_every_polls=2 ** 31))
    setup = daemon_setup("db", config=config, clock=VirtualClock(1_000_000.0))
    for index in range(RECORDS):
        setup.monitor.workload.append(_record(
            FIRST_HASH + index, 1000 + index % sessions,
            "i" * 600 if index == WIDE_AT else ""))
    setup.daemon.poll_once()
    return setup


@pytest.mark.parametrize("sessions", [1, 4])
@pytest.mark.parametrize("fault", ["oversize-row", "disk-write"])
def test_failed_bulk_append_persists_a_prefix_and_loses_nothing(
        sessions, fault, monkeypatch):
    setup = _flooded_setup(sessions)
    daemon, workload_db = setup.daemon, setup.workload_db
    batch = [seq for seq, _row in daemon._pending["wl_workload"]]
    assert batch == sorted(batch)
    assert len(batch) >= RECORDS
    if fault == "oversize-row":
        # No page of the shrunken heap can hold the wide row: the batch
        # fails on it with the rows before it already stored.
        heap = workload_db.database.storage_for("wl_workload")._store
        monkeypatch.setattr(heap, "_fill_capacity", 400)
    else:
        faultsim.get_injector().arm("disk.write", "once", after=3)
    with pytest.raises(StorageError):
        daemon.flush()
    monkeypatch.undo()

    persisted = _workload_seqs(workload_db)
    assert 0 < len(persisted) < len(batch)  # it did fail mid-batch
    # Exactly a prefix of the ascending batch, in order ...
    assert persisted == batch[:len(persisted)]
    # ... and exactly the rest is pending again, in order.
    assert [seq for seq, _row in daemon._pending["wl_workload"]] == \
        batch[len(persisted):]
    assert daemon.status().rows_dropped == 0

    # "Crash": the daemon and its pending rows die; a fresh one resyncs
    # from the persisted src_seq values and re-reads the rest from IMA.
    reborn = StorageDaemon(setup.engine, "db", workload_db,
                           config=daemon.config)
    reborn.poll_once()
    reborn.flush()
    final = _workload_seqs(workload_db)
    assert final == sorted(set(final))  # nothing duplicated, in order
    assert set(batch) <= set(final)  # nothing lost
    flooded = [row for _rowid, row in
               workload_db.database.storage_for("wl_workload").scan()
               if FIRST_HASH <= row[1] < FIRST_HASH + RECORDS]
    assert sorted(row[1] for row in flooded) == \
        list(range(FIRST_HASH, FIRST_HASH + RECORDS))


def _statistics_row(sessions):
    return (0.0, sessions, sessions) + (0,) * 10


def test_triggers_fire_once_per_row_in_order_under_the_bulk_path(
        monkeypatch):
    workload_db = WorkloadDatabase()
    install_standard_alerts(workload_db, max_sessions=32)
    # Prove the batch takes the bulk path, not one insert_row per row.
    monkeypatch.setattr(workload_db.database, "insert_row", None)
    sessions = [5, 40, 7, 33, 32, 1, 99]
    workload_db.append("wl_statistics",
                       [_statistics_row(n) for n in sessions],
                       captured_at=10.0, seqs=range(1, len(sessions) + 1))
    alerts = fired_alerts(workload_db)
    assert [alert.trigger_name for alert in alerts] == \
        ["alert_max_sessions"] * 4
    assert [(alert.row[2], alert.row[-1]) for alert in alerts] == \
        [(40, 2), (33, 4), (32, 5), (99, 7)]
    # A batch that fails on its third row stored — and alerted on —
    # exactly the two rows before it.
    rows = [_statistics_row(50), _statistics_row(60),
            _statistics_row("many"), _statistics_row(70)]
    with pytest.raises(TypeMismatchError):
        workload_db.append("wl_statistics", rows, captured_at=11.0)
    assert [alert.row[2] for alert in fired_alerts(workload_db)[4:]] == \
        [50, 60]
    assert workload_db.row_count("wl_statistics") == len(sessions) + 2


def test_bulk_and_row_at_a_time_build_identical_pages():
    rng = random.Random(11)
    rows = [(rng.randrange(10 ** 9), 3, 1.5, 0.0, 0.25, 0.5, 10.0, 1.0, 12.0,
             2.0, 40, 3, 100, 7, "idx_é" * rng.randrange(0, 40), 1e-5)
            for _ in range(500)]
    bulk = WorkloadDatabase()
    bulk.append("wl_workload", rows[:200], 5.0, seqs=range(1, 201))
    bulk.append("wl_workload", rows[200:], 6.0, seqs=range(201, 501))
    single = WorkloadDatabase()
    for index, row in enumerate(rows):
        single.database.insert_row(
            "wl_workload",
            (5.0 if index < 200 else 6.0,) + row + (index + 1,))

    def pages(workload_db):
        workload_db.flush()
        heap = workload_db.database.storage_for("wl_workload")._store
        return [heap._load(page_id).to_bytes() for page_id in heap.page_ids()]

    assert pages(bulk) == pages(single)
    assert bulk.database.storage_for("wl_workload").page_count == \
        single.database.storage_for("wl_workload").page_count > 10
    assert bulk.total_bytes == single.total_bytes


# -- retention --------------------------------------------------------------

def _pool_reads(workload_db):
    stats = workload_db.database.pool.stats()
    return stats.hits + stats.misses


class TestRetentionWatermark:
    """Retention reads each table's pages from the front and stops at
    the first one holding a row it keeps (the cutoff is the only
    watermark; nothing about it is kept in memory)."""

    def test_nothing_due_reads_one_page_per_table(self):
        workload_db = WorkloadDatabase()
        for table, row in (("wl_tables", ("t", 1, "heap", 1, 0, 3, 0)),
                           ("wl_attributes", ("t", "a", 1, 0)),
                           ("wl_indexes", ("i", "t", 1))):
            workload_db.append(table, [row] * 50, captured_at=100.0)
        workload_db.flush()
        # Exactly one page request per non-empty table, none for the
        # five empty ones.
        before = _pool_reads(workload_db)
        assert workload_db.purge_older_than(50.0) == 0
        assert _pool_reads(workload_db) == before + 3
        assert workload_db.purge_older_than(100.0) == 0  # not *older* than
        assert _pool_reads(workload_db) == before + 6
        assert workload_db.purge_older_than(100.5) == 150  # now due
        assert workload_db.total_bytes == 0  # every emptied page freed
        before = _pool_reads(workload_db)
        assert workload_db.purge_older_than(200.0) == 0
        assert _pool_reads(workload_db) == before

    def test_purge_fault_point_fires_once_per_call(self):
        workload_db = WorkloadDatabase()
        workload_db.append("wl_indexes", [("i", "t", 1)], captured_at=9.0)
        faultsim.get_injector().arm("workload_db.purge", "once",
                                    after=10 ** 9)
        for _ in range(3):  # nothing due
            assert workload_db.purge_older_than(1.0) == 0
        (stats,) = faultsim.get_injector().stats("workload_db.purge")
        assert stats.evaluations == 3

    def test_daemon_purges_exactly_what_aged_out(self, monkeypatch):
        clock = VirtualClock(1_000_000.0)
        setup = daemon_setup("db", clock=clock, daemon_config=DaemonConfig(
            flush_every_polls=1, retention_s=1000.0))
        workload_db = setup.workload_db
        rebuilds = []
        monkeypatch.setattr(workload_db.database, "modify_table",
                            lambda *args, **kwargs: rebuilds.append(args))
        session = setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        setup.daemon.poll_once()  # flushes: captured at 1_000_000
        first = {schema.name: workload_db.row_count(schema.name)
                 for schema in WORKLOAD_TABLES}
        clock.advance(600.0)
        session.execute("select a from t")
        stats = setup.daemon.poll_once()  # captured at 1_000_600
        assert stats.rows_purged == 0
        second = {name: workload_db.row_count(name) - count
                  for name, count in first.items()}
        clock.advance(600.0)  # the first batch is 1200 s old, the second 600
        stats = setup.daemon.poll_once()
        assert stats.rows_purged == sum(first.values())
        assert rebuilds == []
        for schema in WORKLOAD_TABLES:
            stamps = [row[0] for _rowid, row in
                      workload_db.database.storage_for(schema.name).scan()]
            assert 1_000_000.0 not in stamps
            assert stamps.count(1_000_600.0) == second[schema.name]

    def test_rows_the_watermark_never_saw_are_still_purged(self):
        # Restart case: a fresh WorkloadDatabase over rows it never
        # appended.
        workload_db = WorkloadDatabase()
        workload_db.database.insert_rows("wl_indexes", [
            (stamp, "i", "t", 1, 0) for stamp in (10.0, 20.0, 500.0, 600.0)])
        assert workload_db.purge_older_than(100.0) == 2
        # A row written around append(), stamped 30, and the first row
        # of an append that failed part-way, stamped 40, are stored
        # behind the live ones, on the page the purge reads.
        workload_db.database.insert_row("wl_indexes", (30.0, "i", "t", 1, 0))
        assert workload_db.purge_older_than(100.0) == 1
        with pytest.raises(ReproError):
            workload_db.append("wl_indexes", [("i", "t", 1), ("i", "t", "x")],
                               captured_at=40.0)
        assert workload_db.purge_older_than(100.0) == 1
        assert sorted(row[0] for _rowid, row in workload_db.database
                      .storage_for("wl_indexes").scan()) == [500.0, 600.0]

    def test_out_of_order_rows_go_late_never_early(self):
        # A clock that stepped back: 20 is stored behind 500, 40 behind
        # 600, each batch spanning pages.
        workload_db = WorkloadDatabase()
        storage = workload_db.database.storage_for("wl_indexes")

        def stamps():
            return sorted({row[0] for _rowid, row in storage.scan()})

        for stamp in (10.0, 500.0, 20.0, 600.0, 40.0):
            workload_db.append("wl_indexes", [("i" * 100, "t", 1)] * 300,
                               captured_at=stamp)
        assert storage.page_count > 10
        # Only the 10s lead the table; the expired 20s and 40s wait
        # behind live rows.
        assert workload_db.purge_older_than(100.0) == 300
        assert stamps() == [20.0, 40.0, 500.0, 600.0]
        # Once the 500s expire, the 20s behind them go too.
        assert workload_db.purge_older_than(550.0) == 600
        assert stamps() == [40.0, 600.0]
        assert workload_db.purge_older_than(600.0) == 0
        assert workload_db.purge_older_than(601.0) == 600
        assert storage.row_count == storage.page_count == 0


# -- read side --------------------------------------------------------------

@mock.patch.multiple(monitor_module, PLAN_BUFFER_SIZE=5,
                     PLAN_CAPTURE_MIN_COST=1e-9)
def _busy_monitor(session_count):
    """A monitored engine whose rings have wrapped (workload, plans),
    evicted (statements) and been re-sequenced by repeats (every keyed
    ring has seq gaps), fed by ``session_count + 1`` sessions and read
    through an *unmonitored* second engine so that looking does not
    change what is looked at."""
    clock = VirtualClock(1_000_000.0)
    setup = monitoring_setup(
        EngineConfig(monitor=MonitorConfig(
            workload_buffer_size=12, statement_buffer_size=9)),
        clock=clock)
    database = setup.engine.create_database("db")
    sessions = [setup.engine.connect("db") for _ in range(session_count + 1)]
    sessions[0].execute("create table t (a int not null, b int, "
                        "primary key (a))")
    sessions[0].execute("insert into t values " + ", ".join(
        f"({i}, {i % 300})" for i in range(1500)))
    sessions[0].execute("create index t_b on t (b)")
    rng = random.Random(session_count)
    for step in range(90):
        session = sessions[step % len(sessions)]
        # Statements are keyed by shape: more shapes than the statement
        # ring holds, each repeated with other literals.
        op = rng.choice(("=", "<", "<=", "!=", "between 3 and"))
        session.execute(rng.choice((
            f"select a from t where a {op} {rng.randrange(15)}",
            f"select a from t where b {op} {rng.randrange(300)}",
            f"select b from t where a {op} {rng.randrange(15)}",
            "select count(*) from t",
            "select t.a from t join t u on t.a = u.b where u.a < 9")))
        clock.advance(0.4)  # statistics are sampled at most once a second
    assert setup.monitor.statements.evicted > 0
    reader = original_setup()
    reader_db = reader.engine.create_database("reader")
    register_ima_tables(reader_db, setup.monitor, monitored_database=database)
    return setup.monitor, reader_db, reader.engine.connect("reader")


def _spy_on_virtual_rows(database, monkeypatch):
    calls = []
    real = database.virtual_rows

    def spy(table_name, lower_bounds=None):
        calls.append((table_name, dict(lower_bounds or {})))
        return real(table_name, lower_bounds)

    monkeypatch.setattr(database, "virtual_rows", spy)
    return calls


def test_a_reused_poll_plan_pushes_its_own_seq_floor(monkeypatch):
    """The plan is cached for the first mark; every later mark must
    reach the ring as *its* floor, or the seq-bounded read silently
    degrades to a full snapshot filtered row by row."""
    _monitor, reader_db, reader = _busy_monitor(1)
    everything = reader.execute("select * from ima_workload").rows
    seqs = [row[0] for row in everything]
    calls = _spy_on_virtual_rows(reader_db, monkeypatch)
    floors = [seqs[0], seqs[3], seqs[-2], 0, seqs[-1], seqs[6]]
    for floor in floors:
        result = reader.execute(
            f"select * from ima_workload where seq > {floor}")
        assert result.rows == [row for row in everything if row[0] > floor]
        # the scan saw only the rows above the floor
        assert result.metrics.tuples_processed == 2 * len(result.rows)
    assert calls == [("ima_workload", {"seq": floor}) for floor in floors]
    assert reader.plan_cache_misses == 2  # the full read and one shape
    assert reader.plan_cache_hits == len(floors) - 1


def test_floor_only_scan_takes_the_snapshot_as_it_comes(monkeypatch):
    from repro.execution import scan
    _monitor, reader_db, reader = _busy_monitor(1)
    everything = reader.execute("select * from ima_statements").rows
    floor = sorted(row[0] for row in everything)[2]
    compiled = []  # filters prepared: each statement below is a new shape
    real = scan.prepare_filter
    monkeypatch.setattr(
        scan, "prepare_filter",
        lambda *args: compiled.append(args[0]) or real(*args))
    misses = reader.plan_cache_misses
    for bound in (floor, 0, floor + 1):  # planned once, bound twice
        result = reader.execute(
            f"select * from ima_statements where seq > {bound}")
        assert result.rows == [row for row in everything if row[0] > bound]
    # Compiled here, under the patch, and no filter prepared for it.
    assert reader.plan_cache_misses == misses + 1
    assert compiled == []
    # Anything but exactly the pushed floor keeps its predicate.
    for where, keep in (
            (f"seq > {floor} and seq > 0", lambda row: row[0] > floor),
            (f"seq >= {floor}", lambda row: row[0] >= floor),
            (f"frequency > {1}", lambda row: row[3] > 1),
            (f"seq > {floor} and frequency > 1",
             lambda row: row[0] > floor and row[3] > 1)):
        result = reader.execute(f"select * from ima_statements where {where}")
        assert result.rows == [row for row in everything if keep(row)], where
    assert len(compiled) == 4


@pytest.mark.parametrize("sessions", [1, 4])
def test_seq_bounded_ima_reads_equal_the_filtered_full_read(sessions):
    monitor, reader_db, reader = _busy_monitor(sessions)
    assert monitor.workload.dropped > 0  # the workload ring wrapped
    for table in (t.ima_schema.name for t in MONITOR_TABLES):
        everything = reader.execute(f"select * from {table}").rows
        assert everything, table
        assert reader_db.table_info(table).row_count == len(everything)
        seqs = [row[0] for row in everything]
        assert seqs == sorted(seqs)  # the ring's seq order
        if table == "ima_statements":
            # repeats re-sequence a keyed ring's entries: seqs have gaps
            assert seqs != list(range(seqs[0], seqs[0] + len(seqs)))
        floors = (0, seqs[0] - 1, seqs[0], seqs[len(seqs) // 2], seqs[-1] - 1,
                  seqs[-1], seqs[-1] + 1000)
        for floor in floors:
            # The provider leaves out only what the filter would reject.
            bounded = reader_db.virtual_rows(table, {"seq": floor})
            assert bounded == [row for row in everything if row[0] > floor]
            result = reader.execute(
                f"select * from {table} where seq > {floor}")
            assert result.rows == bounded, (table, floor)
