"""Daemon lifecycle, race and failure-recovery tests.

Everything here is deterministic: threads are synchronized with events
(via faultsim ``on_fire`` gates), clocks are virtual, and there are no
sleeps on the happy path.
"""

import threading

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import DaemonConfig
from repro.core import health
from repro.core.daemon import StorageDaemon
from repro.core.workload_db import WORKLOAD_TABLES
from repro.errors import MonitorError
from repro.setups import daemon_setup


def make_setup(**daemon_overrides):
    defaults = dict(poll_interval_s=30.0, flush_every_polls=1,
                    retention_s=7 * 86400.0)
    defaults.update(daemon_overrides)
    clock = VirtualClock(1_000_000.0)
    setup = daemon_setup("db", clock=clock,
                         daemon_config=DaemonConfig(**defaults))
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, primary key (a))")
    session.execute("insert into t values (1), (2), (3)")
    session.execute("select a from t")
    return setup, session, clock


def assert_no_duplicate_src_seqs(workload_db):
    """Every persisted workload row's source seq is unique per table."""
    for schema in WORKLOAD_TABLES:
        storage = workload_db.database.storage_for(schema.name)
        seqs = [row[-1] for _rid, row in storage.scan()]
        assert len(seqs) == len(set(seqs)), (
            f"{schema.name} persisted duplicate source rows: {sorted(seqs)}")


class PollGate:
    """Blocks the first gated seam evaluation until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, _point):
        if not self.entered.is_set():
            self.entered.set()
            assert self.release.wait(timeout=10.0), "gate never released"


class TestStopLifecycle:
    def test_stop_keeps_handle_on_join_timeout(self, monkeypatch):
        monkeypatch.setattr(health, "JOIN_TIMEOUT_S", 0.2)
        setup, _session, _clock = make_setup(poll_interval_s=0.0)
        daemon = setup.daemon
        worker = daemon.worker
        gate = PollGate()
        faultsim.get_injector().arm("session.execute", "every-n", n=1,
                                    on_fire=gate)
        daemon.start()
        assert gate.entered.wait(timeout=10.0)
        # The poll thread is parked inside an in-flight poll; stop()
        # must report the hang, not orphan the live thread.
        with pytest.raises(MonitorError):
            daemon.stop(final_flush=False)
        assert worker._thread is not None and worker._thread.is_alive()
        with pytest.raises(MonitorError):
            daemon.start()  # refuse a second daemon over the live thread
        hung = worker._thread
        gate.release.set()
        hung.join(timeout=10.0)  # let the parked poll drain first
        assert not hung.is_alive()
        daemon.stop(final_flush=False)  # clean join now
        assert worker._thread is None
        daemon.start()  # restart over a *dead* thread is fine
        daemon.stop(final_flush=False)

    def test_stop_tolerates_failing_engine_on_final_flush(self):
        setup, _session, _clock = make_setup()
        daemon = setup.daemon
        faultsim.arm_from_spec("session.execute:every-n=1")
        daemon.stop(final_flush=True)  # must not raise
        status = daemon.status()
        assert status.failures >= 1
        assert status.last_error is not None

    def test_status_snapshot_fields(self):
        setup, _session, _clock = make_setup()
        daemon = setup.daemon
        daemon.poll_once()
        status = daemon.status()
        assert not status.running
        assert status.cycles == 1
        assert status.consecutive_failures == 0
        assert status.backoff_s == 0.0
        assert status.total_rows_flushed > 0
        assert status.last_flush_at is not None


class TestPollSerialization:
    def test_stop_during_inflight_poll_no_duplicates(self):
        setup, _session, _clock = make_setup()
        daemon = setup.daemon
        gate = PollGate()
        faultsim.get_injector().arm("session.execute", "every-n", n=1,
                                    on_fire=gate)

        poller = threading.Thread(target=daemon.poll_once, daemon=True)
        poller.start()
        assert gate.entered.wait(timeout=10.0)
        # An in-flight poll holds the poll mutex; stop's foreground
        # final poll+flush must wait for it instead of re-reading the
        # same high-water snapshot.
        stopper = threading.Thread(
            target=lambda: daemon.stop(final_flush=True), daemon=True)
        stopper.start()
        gate.release.set()
        poller.join(timeout=10.0)
        stopper.join(timeout=10.0)
        assert not poller.is_alive() and not stopper.is_alive()
        assert_no_duplicate_src_seqs(setup.workload_db)
        assert daemon.pending_rows == 0

    def test_sequential_polls_no_duplicates(self):
        setup, session, _clock = make_setup()
        daemon = setup.daemon
        session.execute("select count(*) from t")
        for _ in range(3):
            daemon.poll_once()
        assert_no_duplicate_src_seqs(setup.workload_db)


class TestBackoff:
    def test_backoff_grows_caps_and_resets(self):
        setup, _session, _clock = make_setup()
        daemon = setup.daemon
        faultsim.arm_from_spec("workload_db.append:every-n=1")
        # POLL_BACKOFF doubles from 1 s, then holds at its 300 s cap.
        expected = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                    300.0, 300.0]
        for failures, backoff in enumerate(expected, start=1):
            with pytest.raises(MonitorError):
                daemon.poll_once()
            status = daemon.status()
            assert status.backoff_s == pytest.approx(backoff)
            assert status.consecutive_failures == failures
        assert daemon.status().failures == len(expected)
        faultsim.get_injector().disarm("workload_db.append")
        daemon.poll_once()
        status = daemon.status()
        assert status.consecutive_failures == 0
        assert status.backoff_s == 0.0


class TestDegradation:
    def test_pending_overflow_drops_oldest_and_counts(self):
        setup, session, _clock = make_setup(flush_every_polls=1_000_000,
                                            max_pending_rows=5)
        daemon = setup.daemon
        for i in range(10):
            session.execute(f"select a from t where a = {i}")
            daemon.poll_once()
        status = daemon.status()
        assert status.rows_dropped > 0
        with daemon._lock:
            per_table = {t: len(rows) for t, rows in daemon._pending.items()}
        assert max(per_table.values()) <= 5

    def test_workload_db_outage_exactly_once(self):
        """The acceptance scenario: workload DB down for N polls, then
        back — zero lost, zero duplicated rows, drops accounted."""
        setup, session, _clock = make_setup(flush_every_polls=1)
        daemon = setup.daemon
        # One healthy round first.
        daemon.poll_once()
        # Outage: every flush fails for three polls; the daemon keeps
        # collecting and requeues what it could not persist.
        faultsim.arm_from_spec("workload_db.append:every-n=1")
        for i in range(3):
            session.execute(f"select a from t where a > {i}")
            with pytest.raises(MonitorError):
                daemon.poll_once()
        assert daemon.status().consecutive_failures == 3
        assert daemon.pending_rows > 0
        # Recovery: the DB comes back; the next flush drains everything.
        faultsim.get_injector().disarm("workload_db.append")
        daemon.poll_once()
        daemon.flush()
        status = daemon.status()
        assert status.consecutive_failures == 0
        assert daemon.pending_rows == 0
        assert status.rows_dropped == 0
        assert_no_duplicate_src_seqs(setup.workload_db)
        # Nothing was lost: every pending row collected during the
        # outage ended up persisted exactly once.
        total_persisted = setup.workload_db.total_rows()
        assert total_persisted == status.total_rows_flushed

    def test_partial_flush_requeues_only_unwritten_rows(self):
        setup, session, _clock = make_setup(flush_every_polls=1)
        daemon = setup.daemon
        session.execute("select count(*) from t")
        # First two tables append fine, the third fails: the flush must
        # count the persisted prefix and requeue only the rest.
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            daemon.poll_once()
        assert daemon.pending_rows > 0
        daemon.flush()
        assert daemon.pending_rows == 0
        assert_no_duplicate_src_seqs(setup.workload_db)
        assert setup.workload_db.total_rows() == \
            daemon.status().total_rows_flushed


class TestCrashRecovery:
    def test_restart_after_crash_mid_flush_no_dup_no_loss(self):
        """Kill a daemon mid-flush, restart a fresh one over the same
        workload DB, and verify exactly-once persistence."""
        setup, session, _clock = make_setup(flush_every_polls=1)
        crashed = setup.daemon
        session.execute("select a from t where a = 1")
        faultsim.get_injector().arm("workload_db.append", "once", after=2)
        with pytest.raises(MonitorError):
            crashed.poll_once()
        # "Crash": abandon the first daemon entirely (its in-memory
        # pending batches die with it) and restart from persisted state.
        persisted_before = setup.workload_db.total_rows()
        assert persisted_before > 0  # the crash happened mid-flush
        reborn = StorageDaemon(setup.engine, "db", setup.workload_db,
                               config=crashed.config)
        reborn.poll_once()
        reborn.flush()
        assert_no_duplicate_src_seqs(setup.workload_db)
        # The re-polled tables re-read everything the crash lost from
        # the IMA buffers; the persisted prefix was not re-appended.
        target = "select a from t where a = 1"
        from repro.core.sensors import statement_key
        rows = [row for _rid, row in setup.workload_db.database
                .storage_for("wl_workload").scan()
                if row[1] == statement_key(target)]
        assert len(rows) == 1
