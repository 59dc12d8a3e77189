"""Tests for the lock manager: grants, waits, deadlocks, statistics."""

import threading
import time

import pytest

from repro.engine import locks
from repro.engine.locks import LockGuard, LockManager, LockMode
from repro.errors import DeadlockError, LockTimeoutError


@pytest.fixture
def manager(monkeypatch):
    monkeypatch.setattr(locks, "WAIT_TIMEOUT_S", 2.0)
    monkeypatch.setattr(locks, "DEADLOCK_CHECK_INTERVAL_S", 0.01)
    return LockManager()


@pytest.fixture
def impatient(manager, monkeypatch):
    """The manager, with requests that give up after 50 ms."""
    monkeypatch.setattr(locks, "WAIT_TIMEOUT_S", 0.05)
    return manager


class TestGrants:
    def test_shared_locks_compatible(self, manager):
        manager.acquire(1, "t", LockMode.SHARED)
        manager.acquire(2, "t", LockMode.SHARED)
        assert manager.holds(1, "t", LockMode.SHARED)
        assert manager.holds(2, "t", LockMode.SHARED)

    def test_exclusive_blocks_shared(self, impatient):
        impatient.acquire(1, "t", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            impatient.acquire(2, "t", LockMode.SHARED)

    def test_shared_blocks_exclusive(self, impatient):
        impatient.acquire(1, "t", LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            impatient.acquire(2, "t", LockMode.EXCLUSIVE)

    def test_reentrant(self, manager):
        manager.acquire(1, "t", LockMode.SHARED)
        manager.acquire(1, "t", LockMode.SHARED)
        manager.acquire(1, "t", LockMode.EXCLUSIVE)  # sole holder upgrade
        assert manager.holds(1, "t", LockMode.EXCLUSIVE)

    def test_exclusive_implies_shared_reentry(self, manager):
        manager.acquire(1, "t", LockMode.EXCLUSIVE)
        manager.acquire(1, "t", LockMode.SHARED)  # no downgrade, no block
        assert manager.holds(1, "t", LockMode.EXCLUSIVE)

    def test_upgrade_blocked_by_other_reader(self, impatient):
        impatient.acquire(1, "t", LockMode.SHARED)
        impatient.acquire(2, "t", LockMode.SHARED)
        with pytest.raises(LockTimeoutError):
            impatient.acquire(1, "t", LockMode.EXCLUSIVE)

    def test_release_all_unblocks(self, manager):
        manager.acquire(1, "t", LockMode.EXCLUSIVE)
        acquired = threading.Event()

        def waiter():
            manager.acquire(2, "t", LockMode.EXCLUSIVE)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        assert manager.release_all(1) == 1
        thread.join(timeout=2.0)
        assert acquired.is_set()
        manager.release_all(2)

    def test_different_resources_independent(self, manager):
        manager.acquire(1, "a", LockMode.EXCLUSIVE)
        manager.acquire(2, "b", LockMode.EXCLUSIVE)  # no block

    def test_release_all_returns_zero_for_unknown(self, manager):
        assert manager.release_all(42) == 0


class TestDeadlocks:
    def test_two_transaction_deadlock_detected(self, manager):
        manager.acquire(1, "a", LockMode.EXCLUSIVE)
        manager.acquire(2, "b", LockMode.EXCLUSIVE)
        errors = []

        def txn1():
            try:
                manager.acquire(1, "b", LockMode.EXCLUSIVE)
            except (DeadlockError, LockTimeoutError) as e:
                errors.append(e)
                manager.release_all(1)

        thread = threading.Thread(target=txn1)
        thread.start()
        time.sleep(0.05)
        try:
            manager.acquire(2, "a", LockMode.EXCLUSIVE)
        except (DeadlockError, LockTimeoutError) as e:
            errors.append(e)
            manager.release_all(2)
        thread.join(timeout=5.0)
        assert any(isinstance(e, DeadlockError) for e in errors)
        assert manager.statistics().total_deadlocks >= 1
        manager.release_all(1)
        manager.release_all(2)

    def test_no_false_deadlock_on_plain_wait(self, impatient):
        impatient.acquire(1, "t", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            # waiting on a holder that isn't waiting on us: not a deadlock
            impatient.acquire(2, "t", LockMode.EXCLUSIVE)
        stats = impatient.statistics()
        assert stats.total_deadlocks == 0
        assert stats.total_timeouts == 1


class TestStatistics:
    def test_counters(self, manager):
        manager.acquire(1, "a", LockMode.SHARED)
        manager.acquire(1, "b", LockMode.EXCLUSIVE)
        stats = manager.statistics()
        assert stats.locks_held == 2
        assert stats.total_requests == 2
        assert stats.total_waits == 0
        manager.release_all(1)
        assert manager.statistics().locks_held == 0

    def test_waits_counted(self, impatient):
        impatient.acquire(1, "t", LockMode.EXCLUSIVE)
        with pytest.raises(LockTimeoutError):
            impatient.acquire(2, "t", LockMode.SHARED)
        assert impatient.statistics().total_waits == 1


class TestLockGuard:
    def test_guard_releases_on_exit(self, manager):
        with LockGuard(manager, 7) as guard:
            guard.acquire("t", LockMode.EXCLUSIVE)
            assert manager.holds(7, "t")
        assert not manager.holds(7, "t")

    def test_guard_releases_on_exception(self, manager):
        with pytest.raises(RuntimeError):
            with LockGuard(manager, 7) as guard:
                guard.acquire("t", LockMode.EXCLUSIVE)
                raise RuntimeError("boom")
        assert not manager.holds(7, "t")
