"""What a statement's terminal sensor keeps, and how its rows are read.

The workload ring holds each execution as its sensor had it (the plan's
estimate, the executor's metrics, the times); ``ima_workload`` derives
the row's 16 columns when read.  The keyed rings bump their entries in
place; what a reader was handed before a bump does not change.
"""

import gc
import sys
import threading
import weakref
from itertools import count

import pytest

from repro.clock import VirtualClock
from repro.config import EngineConfig, MonitorConfig
from repro.core import monitor as monitor_module
from repro.core.sensors import statement_key
from repro.engine import session as session_module
from repro.optimizer.cost_model import CPU_TUPLE_COST, IO_PAGE_COST
from repro.optimizer.optimizer import Optimizer
from repro.setups import daemon_setup, monitoring_setup
from repro.sql.parser import parse_statement


def _indexed_session(setup):
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, b int, "
                    "primary key (a))")
    values = ", ".join(f"({i}, {i})" for i in range(2000))
    session.execute(f"insert into t values {values}")
    session.execute("create index i_b on t (b)")
    session.execute("create statistics on t")
    return session


class TestDerivedWorkloadRows:
    """Each ``ima_workload`` row equals the values computed by hand from
    the statement's plan and its execution metrics."""

    def test_rows_of_five_kinds_of_statement(self, monkeypatch):
        clock = VirtualClock(1000.0)
        setup = daemon_setup("db", clock=clock)
        session = _indexed_session(setup)
        # The sensor's self-timer ticks once per reading, so each
        # record's self time (one reading after the first) is 1.0.
        ticks = count()
        monkeypatch.setattr(monitor_module, "perf_counter",
                            lambda: float(next(ticks)))
        select = "select a from t where b = 3"
        expected = []

        def run(text, ts, error=None):
            clock.advance(ts - clock.now())
            if error is not None:
                with pytest.raises(error):
                    session.execute(text)
                return None
            return session.execute(text)

        def work(metrics):
            reads, tuples = metrics.logical_reads, metrics.tuples_processed
            return (reads * IO_PAGE_COST, tuples * CPU_TUPLE_COST, reads,
                    metrics.physical_reads, tuples, metrics.rows_returned)

        plan = Optimizer(setup.engine.database("db")).optimize_select(
            parse_statement(select))
        assert plan.used_indexes == ("i_b",)
        estimate = (plan.estimated_cost.io, plan.estimated_cost.cpu)
        key = statement_key(select)
        sid = session.session_id
        no_work = (0.0, 0.0, 0, 0, 0, 0)
        # A first SELECT, parsed and planned; it uses the index.
        first = run(select, 2000.0)
        expected.append((key, sid, 2000.0, 0.0, 0.0, 0.0, *estimate,
                         *work(first.metrics), "i_b", 1.0))
        # The same text again: a plan-cache hit.
        hits = session.plan_cache_hits
        cached = run(select, 2001.0)
        assert session.plan_cache_hits == hits + 1
        expected.append((key, sid, 2001.0, 0.0, 0.0, 0.0, *estimate,
                         *work(cached.metrics), "i_b", 1.0))
        # DML records no estimate and no work.
        update = "update t set b = 7 where a = 5"
        run(update, 2002.0)
        expected.append((statement_key(update), sid, 2002.0, 0.0, 0.0, 0.0,
                         0.0, 0.0, *no_work, "", 1.0))
        # A failing statement: no estimate, zero work.
        failing = "select a from missing_table"
        run(failing, 2003.0, error=Exception)
        expected.append((statement_key(failing), sid, 2003.0, 0.0, 0.0,
                         0.0, 0.0, 0.0, *no_work, "", 1.0))
        # Transaction control.
        for ts, text in ((2004.0, "begin"), (2005.0, "commit")):
            run(text, ts)
            expected.append((statement_key(text), sid, ts, 0.0, 0.0, 0.0,
                             0.0, 0.0, *no_work, "", 1.0))

        reader = setup.engine.connect("db")
        rows = reader.execute("select * from ima_workload").rows
        assert [row[1:] for row in rows[-len(expected):]] == expected

    def test_an_uncached_plan_is_not_kept_alive(self, monkeypatch):
        """With plan caching off, nothing the monitor keeps holds a
        statement's optimizer result: the workload ring keeps the
        estimate, not the plan."""
        monkeypatch.setattr(session_module, "PLAN_CACHE_SIZE", 0)
        setup = monitoring_setup()
        setup.engine.create_database("db")
        session = _indexed_session(setup)
        plans = []
        real = Optimizer.optimize_select

        def spy(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            plans.append(weakref.ref(result))
            return result

        monkeypatch.setattr(Optimizer, "optimize_select", spy)
        appended = setup.monitor.workload.total_appended
        for value in (3, 4, 3):
            session.execute(f"select a from t where b = {value}")
        assert len(plans) == 3
        assert setup.monitor.workload.total_appended == appended + 3
        gc.collect()
        assert [ref() for ref in plans] == [None, None, None]


def _setup(statement_buffer_size=1000):
    setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
        statement_buffer_size=statement_buffer_size)),
        clock=VirtualClock(1000.0))
    setup.engine.create_database("db")
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, b int, "
                    "primary key (a))")
    return setup, session


class TestInPlaceBumps:
    def test_a_record_read_before_a_bump_does_not_change(self):
        setup, session = _setup()
        monitor = setup.monitor
        text = "select a from t where b = 1"
        session.execute(text)
        key = statement_key(text)
        before = monitor.statements.get(key)
        snapshot = monitor.statements.snapshot()
        setup.engine.clock.advance(5.0)
        session.execute(text)
        assert before.frequency == 1 and before.last_seen == 1000.0
        assert monitor.statements.get(key).frequency == 2
        assert monitor.statements.get(key).last_seen == 1005.0
        assert [record for _seq, record in snapshot
                if record.text_hash == key] == [before]

    def test_an_ima_row_read_before_a_bump_does_not_change(self):
        clock = VirtualClock(1000.0)
        setup = daemon_setup("db", clock=clock)
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        text = "select a from t"
        session.execute(text)
        key = statement_key(text)
        reader = setup.engine.connect("db")
        rows = reader.execute("select * from ima_statements").rows
        (row,) = [row for row in rows if row[1] == key]
        clock.advance(3.0)
        session.execute(text)
        assert row[1:] == (key, text, 1, 1000.0, 1000.0)
        (fresh,) = [r for r in reader.execute(
            "select * from ima_statements").rows if r[1] == key]
        assert (fresh[3], fresh[5]) == (2, 1003.0)
        assert fresh[0] > row[0]

    def test_the_statement_ring_is_lru_not_fifo(self):
        """A statement run again after 999 others survives the 1000th
        new one, which evicts the least recently used instead."""
        setup, session = _setup(statement_buffer_size=1000)
        statements = setup.monitor.statements
        statements.clear()
        kept = "select a from t where b = 1"
        session.execute(kept)
        others = [f"select a as c{i} from t" for i in range(1000)]
        for text in others[:999]:
            session.execute(text)
        assert len(statements) == 1000 and statements.evicted == 0
        session.execute(kept)
        session.execute(others[999])
        assert statements.evicted == 1
        assert statement_key(kept) in statements
        assert statement_key(others[0]) not in statements
        assert statement_key(others[1]) in statements

    def test_snapshot_after_a_bump_returns_the_bumped_entries(self):
        setup, session = _setup()
        statements = setup.monitor.statements
        texts = ["select a from t where b = 1", "select b from t",
                 "select a, b from t", "select count(*) from t"]
        for text in texts:
            session.execute(text)
        high_water = max(seq for seq, _record in statements.snapshot())
        bumped = (texts[1], texts[3])
        for text in bumped:
            session.execute(text)
        changed = statements.snapshot(high_water)
        assert [record.text_hash for _seq, record in changed] == [
            statement_key(text) for text in bumped]
        seqs = [seq for seq, _record in changed]
        assert seqs == sorted(set(seqs)) and seqs[0] > high_water
        assert [record.frequency for _seq, record in changed] == [2, 2]

    def test_concurrent_bumps_lose_no_count(self):
        """Sessions on more threads than cores bump one statement while
        a reader snapshots the ring: no bump is lost, and no reader
        sees a count go back."""
        setup, session = _setup()
        text = "select a from t where b = 1"
        session.execute(text)
        key = statement_key(text)
        statements = setup.monitor.statements
        threads, runs = 4, 300
        seen, failures = [], []
        done = threading.Event()

        def run():
            worker = setup.engine.connect("db")
            try:
                for _ in range(runs):
                    worker.execute(text)
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)
            finally:
                worker.close()

        def read():
            while not done.is_set():
                seen.extend(record.frequency
                            for _seq, record in statements.snapshot()
                            if record.text_hash == key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=read)
            writers = [threading.Thread(target=run) for _ in range(threads)]
            reader.start()
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (reader, *writers))
        assert failures == []
        assert statements.get(key).frequency == 1 + threads * runs
        assert seen == sorted(seen)


#: ``wl_statements`` and ``wl_references`` rows the script below
#: persisted before the rings bumped in place (rows of the daemon's own
#: IMA reads left out): the statement ring holds three entries, so
#: statements are evicted, re-inserted and their references bumped.
PERSISTED = {
    "wl_statements": [
        (1007.0, 1032220835217013381, "select b from t where a > 1", 1,
         1004.0, 1004.0, 4),
        (1007.0, 653639715519994151, "select a from t where b = 20", 2,
         1003.0, 1005.0, 5),
        (1007.0, 2694310609759129140, "update t set b = 11 where a = 1", 1,
         1006.0, 1006.0, 6),
        (1011.0, 1032220835217013381, "select b from t where a > 2", 1,
         1008.0, 1008.0, 15),
        (1011.0, 653639715519994151, "select a from t where b = 10", 1,
         1009.0, 1009.0, 16),
        (1011.0, 2694310609759129140, "update t set b = 12 where a = 1", 1,
         1010.0, 1010.0, 17),
    ],
    "wl_references": [
        (1007.0, 2594268357981091638, "table", "t", "t", 1, 1),
        (1007.0, 4322712413212931248, "table", "t", "t", 1, 2),
        (1007.0, 653639715519994151, "table", "t", "t", 1, 3),
        (1007.0, 653639715519994151, "attribute", "t.b", "t", 1, 4),
        (1007.0, 653639715519994151, "attribute", "t.a", "t", 1, 5),
        (1007.0, 1032220835217013381, "table", "t", "t", 1, 6),
        (1007.0, 1032220835217013381, "attribute", "t.a", "t", 1, 7),
        (1007.0, 1032220835217013381, "attribute", "t.b", "t", 1, 8),
        (1007.0, 2694310609759129140, "table", "t", "t", 1, 9),
        (1011.0, 1032220835217013381, "table", "t", "t", 2, 83),
        (1011.0, 1032220835217013381, "attribute", "t.a", "t", 2, 84),
        (1011.0, 1032220835217013381, "attribute", "t.b", "t", 2, 85),
        (1011.0, 653639715519994151, "table", "t", "t", 2, 86),
        (1011.0, 653639715519994151, "attribute", "t.b", "t", 2, 87),
        (1011.0, 653639715519994151, "attribute", "t.a", "t", 2, 88),
        (1011.0, 2694310609759129140, "table", "t", "t", 2, 89),
    ],
}


def test_persisted_statement_and_reference_rows_are_unchanged():
    script = (
        "create table t (a int not null, b int, primary key (a))",
        "insert into t values (1, 10), (2, 20), (3, 30)",
        "select a from t where b = 20",
        "select b from t where a > 1",
        "select a from t where b = 30",
        "update t set b = 11 where a = 1",
        None,
        "select b from t where a > 2",
        "select a from t where b = 10",
        "update t set b = 12 where a = 1",
        None,
    )
    clock = VirtualClock(1000.0)
    setup = daemon_setup("db", EngineConfig(monitor=MonitorConfig(
        statement_buffer_size=3)), clock=clock)
    session = setup.engine.connect("db")
    for text in script:
        clock.advance(1.0)
        if text is None:
            setup.daemon.poll_once()
            setup.daemon.flush()
        else:
            session.execute(text)
    database = setup.workload_db.database
    for table, expected in PERSISTED.items():
        rows = [row for _rowid, row in database.storage_for(table).scan()
                if "ima_" not in str(row)]
        assert rows == expected, table
