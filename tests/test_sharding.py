"""Sharded monitor tests: seq encoding, merged views, shard routing,
and the daemon's end-to-end exactly-once contract over shards.

The property test mirrors the determinism rules of
``test_daemon_recovery.py``: virtual clocks, seeded RNG interleavings,
no sleeps.
"""

import random

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import DaemonConfig, EngineConfig, MonitorConfig
from repro.core.daemon import StorageDaemon
from repro.core.monitor import IntegratedMonitor
from repro.core.records import WorkloadRecord
from repro.core.sensors import statement_key
from repro.core.sharding import (
    SHARD_STRIDE,
    MergedKeyedView,
    MergedRingView,
    ShardedMonitor,
    decode_seq,
    encode_seq,
    monitor_shards,
    shard_of_seq,
)
from repro.core.workload_db import TABLE_SOURCES
from repro.errors import MonitorError
from repro.setups import daemon_setup, monitoring_setup


def _record(text_hash: int, session_id: int, ts: float = 0.0) -> WorkloadRecord:
    return WorkloadRecord(
        text_hash=text_hash, session_id=session_id, timestamp=ts,
        optimize_time_s=0.0, execute_time_s=0.0, wallclock_s=0.0,
        estimated_io=0.0, estimated_cpu=0.0, actual_io=0.0, actual_cpu=0.0,
        logical_reads=0, physical_reads=0, tuples_processed=0,
        rows_returned=0, used_indexes="", monitor_time_s=0.0)


def _sharded_config(shard_count: int, poll_workers: int = 1) -> EngineConfig:
    return EngineConfig(monitor=MonitorConfig(shard_count=shard_count),
                        daemon=DaemonConfig(poll_workers=poll_workers,
                                            flush_every_polls=1))


class TestSeqEncoding:
    def test_roundtrip(self):
        for local in (1, 2, 999, 10**9):
            for shard in (0, 1, 63):
                merged = encode_seq(local, shard)
                assert decode_seq(merged) == (local, shard)
                assert shard_of_seq(merged) == shard

    def test_roundtrip_at_boundary_shards(self):
        # Shards 0 and SHARD_STRIDE - 1 are the aliasing-prone edges of
        # the encoding; a seeded sweep of local seqs must survive both.
        rng = random.Random(29)
        locals_ = [0, 1, SHARD_STRIDE - 1, SHARD_STRIDE,
                   *(rng.randrange(10**12) for _ in range(200))]
        for shard in (0, SHARD_STRIDE - 1):
            for local in locals_:
                merged = encode_seq(local, shard)
                assert decode_seq(merged) == (local, shard)
                assert shard_of_seq(merged) == shard

    def test_encode_rejects_out_of_range_shard(self):
        for shard in (-1, SHARD_STRIDE, SHARD_STRIDE + 5):
            with pytest.raises(ValueError, match="shard_id"):
                encode_seq(1, shard)

    def test_encode_rejects_negative_local_seq(self):
        with pytest.raises(ValueError, match="local_seq"):
            encode_seq(-1, 0)
        with pytest.raises(ValueError, match="local_seq"):
            encode_seq(-10**9, SHARD_STRIDE - 1)

    def test_merged_seqs_unique_across_shards(self):
        merged = {encode_seq(local, shard)
                  for local in range(1, 200) for shard in range(8)}
        assert len(merged) == 199 * 8

    def test_per_shard_monotone(self):
        assert encode_seq(2, 5) > encode_seq(1, 5)
        # ... but NOT globally ordered by append time across shards:
        # a lagging shard's later append can encode below another
        # shard's earlier one — the reason the daemon keeps per-shard
        # high-water vectors instead of one scalar.
        assert encode_seq(1, 5) < encode_seq(2, 0)

    def test_shard_count_capped_at_stride(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=SHARD_STRIDE + 9))
        assert monitor.shard_count == SHARD_STRIDE


class TestMergedViews:
    def test_ring_view_orders_by_encoded_seq(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=3),
                                 VirtualClock(0.0))
        for shard, count in ((2, 3), (0, 2), (1, 1)):
            for i in range(count):
                monitor.shards[shard].record_workload(
                    _record(100 * shard + i, shard))
        view = monitor.workload
        assert isinstance(view, MergedRingView)
        seqs = [seq for seq, _r in view.snapshot()]
        assert seqs == sorted(seqs)
        assert len(view) == 6
        assert {shard_of_seq(seq) for seq in seqs} == {0, 1, 2}
        # min_seq filters in merged space
        later = view.snapshot(min_seq=seqs[2])
        assert [seq for seq, _r in later] == seqs[3:]

    def test_keyed_view_get_prefers_freshest_shard(self):
        monitor = ShardedMonitor(MonitorConfig(shard_count=2),
                                 VirtualClock(0.0))
        monitor.shards[0].record_statement("select 1", 7, now=10.0)
        monitor.shards[1].record_statement("select 1 ", 7, now=20.0)
        view = monitor.statements
        assert isinstance(view, MergedKeyedView)
        record = view.get(7)
        assert record is not None and record.first_seen == 20.0
        # snapshot keeps one row per (shard, key): per-shard history
        assert len(view.snapshot()) == 2
        assert 7 in view

    def test_monitor_shards_of_plain_monitor(self):
        monitor = IntegratedMonitor()
        assert monitor_shards(monitor) == (monitor,)
        assert monitor.shard_count == 1


class TestShardRouting:
    def test_sessions_write_to_their_hash_bucket(self):
        setup = monitoring_setup(_sharded_config(4))
        engine = setup.engine
        engine.create_database("db")
        sessions = [engine.connect("db") for _ in range(5)]
        for session in sessions:
            session.execute("create table t%d (a int not null, "
                            "primary key (a))" % session.session_id)
            session.execute("select a from t%d" % session.session_id)
        monitor = setup.monitor
        for session in sessions:
            shard = monitor.shard_id_for(session.session_id)
            recorded = {r.session_id for r in
                        monitor.shards[shard].workload.values()}
            assert session.session_id in recorded
            for other in range(4):
                if other == shard:
                    continue
                assert session.session_id not in {
                    r.session_id
                    for r in monitor.shards[other].workload.values()}

    def test_statistics_rate_limit_stays_global(self):
        # Every shard-bound sensor samples into shard 0, so sharding
        # does not multiply the paper's 1/s statistics rate.
        setup = monitoring_setup(_sharded_config(4),
                                 clock=VirtualClock(1000.0))
        engine = setup.engine
        engine.create_database("db")
        sessions = [engine.connect("db") for _ in range(4)]
        for session in sessions:
            session.execute("create table s%d (a int not null, "
                            "primary key (a))" % session.session_id)
        monitor = setup.monitor
        total = sum(len(shard.statistics) for shard in monitor.shards)
        assert total == len(monitor.shards[0].statistics) <= 1


def _persisted(workload_db, table="wl_workload"):
    storage = workload_db.database.storage_for(table)
    return [row for _rid, row in storage.scan()]


def assert_exactly_once(workload_db):
    for wl_table in TABLE_SOURCES:
        seqs = [row[-1] for row in _persisted(workload_db, wl_table)]
        assert len(seqs) == len(set(seqs)), (
            f"{wl_table} persisted duplicate source rows: {sorted(seqs)}")


class TestShardedDaemonEndToEnd:
    def test_poll_persists_all_shards_with_attribution(self):
        setup = daemon_setup("db", config=_sharded_config(4, poll_workers=3),
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
        by_session = {}
        for row in rows:
            seq, session_id = row[-1], row[2]
            by_session.setdefault(session_id, []).append(seq)
        for session in sessions:
            seqs = by_session.get(session.session_id)
            assert seqs, f"session {session.session_id} lost"
            expected_shard = session.session_id % 4
            assert all(shard_of_seq(seq) == expected_shard for seq in seqs)

    def test_restart_resumes_from_high_water_vector(self):
        setup = daemon_setup("db", config=_sharded_config(4),
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
        # A fresh daemon over the same workload DB must resync the
        # per-shard vector from persisted src_seq values alone.
        reborn = StorageDaemon(engine, "db", setup.workload_db,
                               config=setup.daemon.config, shard_count=4)
        marks = setup.workload_db.load_high_water_vector()["wl_workload"]
        assert set(marks) == {s.session_id % 4 for s in sessions}
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)

    def test_crash_mid_flush_recovery_exactly_once(self):
        setup = daemon_setup("db", config=_sharded_config(4),
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
                               config=setup.daemon.config, shard_count=4)
        reborn.poll_once()
        reborn.flush()
        assert_exactly_once(setup.workload_db)
        for session in sessions:
            target = statement_key("select a from c%d" % session.session_id)
            matches = [row for row in _persisted(setup.workload_db)
                       if row[1] == target]
            assert len(matches) == 1


class TestMergedOrderingProperty:
    """Satellite: any interleaving of shard appends and daemon polls
    yields a persisted sequence with no duplicates, no lost records and
    per-shard monotone src_seq order."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_random_interleavings(self, seed):
        rng = random.Random(seed)
        shard_count = 4
        setup = daemon_setup(
            "db", config=_sharded_config(shard_count,
                                         poll_workers=rng.choice((1, 2, 3))),
            clock=VirtualClock(1_000_000.0))
        monitor = setup.monitor
        appended: dict[int, int] = {s: 0 for s in range(shard_count)}
        hashes: set[int] = set()
        next_hash = 777_000
        for _step in range(rng.randint(15, 35)):
            if rng.random() < 0.3:
                setup.daemon.poll_once()
                setup.daemon.flush()
                continue
            shard = rng.randrange(shard_count)
            for _burst in range(rng.randint(1, 4)):
                # session_id chosen so that sid % shard_count == shard
                monitor.shards[shard].record_workload(
                    _record(next_hash, 1004 + shard))
                hashes.add(next_hash)
                next_hash += 1
                appended[shard] += 1
        setup.daemon.poll_once()
        setup.daemon.flush()
        assert_exactly_once(setup.workload_db)
        mine = [row for row in _persisted(setup.workload_db)
                if row[1] in hashes]
        # no loss: every appended record persisted exactly once
        assert len(mine) == sum(appended.values())
        per_shard_locals: dict[int, list[int]] = {}
        for row in mine:
            local, shard = decode_seq(row[-1])
            assert (1004 + shard) == row[2]  # attribution survived
            per_shard_locals.setdefault(shard, []).append(local)
        for shard, locals_ in per_shard_locals.items():
            # persisted in per-shard append order, gap-free
            assert locals_ == sorted(locals_)
            assert len(locals_) == appended[shard]
            assert len(set(locals_)) == len(locals_)


class TestShardedIma:
    def test_ima_workload_carries_shard_column(self):
        setup = daemon_setup("db", config=_sharded_config(3),
                             clock=VirtualClock(1_000_000.0))
        engine = setup.engine
        sessions = [engine.connect("db") for _ in range(3)]
        for session in sessions:
            session.execute("create table i%d (a int not null, "
                            "primary key (a))" % session.session_id)
        reader = engine.connect("db")
        result = reader.execute("select * from ima_workload")
        seqs = [row[0] for row in result.rows]
        assert seqs == sorted(seqs)
        for row in result.rows:
            assert row[1] == shard_of_seq(row[0])
