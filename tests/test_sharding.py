"""Many sessions, one monitor: the sessions share the statistics rate
limit, and the daemon's exactly-once contract holds for every
session's persisted history under any interleaving of appends and
polls (``src_seq`` is the ring's own sequence number).

The property test mirrors the determinism rules of
``test_daemon_recovery.py``: virtual clocks, seeded RNG interleavings,
no sleeps.
"""

import random

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import DaemonConfig, EngineConfig
from repro.core.daemon import StorageDaemon
from repro.core.ima import WORKLOAD
from repro.core.sensors import statement_key
from repro.core.workload_db import WORKLOAD_TABLES
from repro.errors import MonitorError
from repro.execution.executor import ExecutionMetrics
from repro.optimizer.cost_model import Cost
from repro.setups import daemon_setup, monitoring_setup

_CONFIG = EngineConfig(daemon=DaemonConfig(flush_every_polls=1))


def _record(text_hash: int, session_id: int, ts: float = 0.0) -> tuple:
    return WORKLOAD.record(
        text_hash=text_hash, session_id=session_id, ts=ts,
        optimize_time_s=0.0, wallclock_s=0.0, estimate=Cost(),
        used_indexes="", metrics=ExecutionMetrics(), monitor_time_s=0.0)


class TestShardRouting:
    def test_statistics_rate_limit_stays_global(self):
        # Every session samples into the one monitor, so more sessions
        # do not multiply the paper's 1/s statistics rate.
        setup = monitoring_setup(clock=VirtualClock(1000.0))
        engine = setup.engine
        engine.create_database("db")
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table s%d (a int not null, "
                            "primary key (a))" % session.session_id)
        assert len(setup.monitor.statistics) <= 1


def _persisted(workload_db, table="wl_workload"):
    storage = workload_db.database.storage_for(table)
    return [row for _rid, row in storage.scan()]


def assert_exactly_once(workload_db):
    for schema in WORKLOAD_TABLES:
        seqs = [row[-1] for row in _persisted(workload_db, schema.name)]
        assert len(seqs) == len(set(seqs)), (
            f"{schema.name} persisted duplicate source rows: {sorted(seqs)}")
        assert seqs == sorted(seqs), f"{schema.name} persisted out of order"


class TestShardedDaemonEndToEnd:
    def test_poll_persists_every_session_with_attribution(self):
        setup = daemon_setup("db", config=_CONFIG,
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(6)]
        for session in sessions:
            session.execute("create table e%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("insert into e%d values (1)"
                            % session.session_id)
            session.execute("select a from e%d" % session.session_id)
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert_exactly_once(setup.workload_db)
        rows = _persisted(setup.workload_db)
        for session in sessions:
            target = statement_key("select a from e%d" % session.session_id)
            assert [row[2] for row in rows if row[1] == target] == \
                [session.session_id]

    def test_restart_resumes_from_high_water_marks(self):
        setup = daemon_setup("db", config=_CONFIG,
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table r%d (a int not null, "
                            "primary key (a))" % session.session_id)
        setup.daemon.poll_once()
        setup.daemon.flush()
        before = len(_persisted(setup.workload_db))
        assert before > 0
        # A fresh daemon over the same workload DB must resync its
        # marks from persisted src_seq values alone.
        marks = setup.workload_db.load_high_water()
        assert marks["wl_workload"] == max(
            row[-1] for row in _persisted(setup.workload_db))
        reborn = StorageDaemon(engine, "db", setup.workload_db,
                               config=setup.daemon.config)
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)

    def test_crash_mid_flush_recovery_exactly_once(self):
        setup = daemon_setup("db", config=_CONFIG,
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table c%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("select a from c%d" % session.session_id)
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            setup.daemon.poll_once()
        assert setup.workload_db.total_rows() > 0  # crashed mid-flush
        reborn = StorageDaemon(engine, "db", setup.workload_db,
                               config=setup.daemon.config)
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)
        for session in sessions:
            target = statement_key("select a from c%d" % session.session_id)
            matches = [row for row in _persisted(setup.workload_db)
                       if row[1] == target]
            assert len(matches) == 1


class TestMergedOrderingProperty:
    """Any interleaving of several sessions' appends and daemon polls
    yields a persisted sequence with no duplicates, no lost records and
    ascending src_seq order."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        sessions = 4
        setup = daemon_setup("db", config=_CONFIG,
                             clock=VirtualClock(1_000_000.0))
        monitor = setup.monitor
        appended: dict[int, list[int]] = {s: [] for s in range(sessions)}
        next_hash = 777_000
        for _step in range(rng.randint(15, 35)):
            if rng.random() < 0.3:
                setup.daemon.poll_once()
                setup.daemon.flush()
                continue
            session = rng.randrange(sessions)
            for _burst in range(rng.randint(1, 4)):
                monitor.workload.append(_record(next_hash, 1004 + session))
                appended[session].append(next_hash)
                next_hash += 1
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert_exactly_once(setup.workload_db)
        mine = [row for row in _persisted(setup.workload_db)
                if 777_000 <= row[1] < next_hash]
        # no loss: every appended record persisted exactly once, in
        # append order, attributed to its session
        assert [row[1] for row in mine] == list(range(777_000, next_hash))
        for session, hashes in appended.items():
            assert [row[1] for row in mine if row[2] == 1004 + session] \
                == hashes
