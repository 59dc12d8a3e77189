"""Property/stress tests for the lock manager."""

import threading
from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.engine import locks
from repro.engine.locks import LockManager, LockMode
from repro.errors import LockError


class TestLockManagerProperties:
    @given(ops=st.lists(
        st.tuples(st.integers(1, 4),                 # txn
                  st.sampled_from(["a", "b", "c"]),  # resource
                  st.booleans()),                    # exclusive?
        max_size=40))
    @settings(max_examples=60, deadline=None)
    @mock.patch.multiple(locks, WAIT_TIMEOUT_S=0.01,
                         DEADLOCK_CHECK_INTERVAL_S=0.005)
    def test_single_threaded_invariants(self, ops):
        """Serialized acquire/release keeps counters and state sane."""
        manager = LockManager()
        held: dict[str, dict[int, bool]] = {}
        for txn, resource, exclusive in ops:
            mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
            holders = held.setdefault(resource, {})
            others = {t: x for t, x in holders.items() if t != txn}
            already = holders.get(txn)
            compatible = (
                already is True  # holding X covers everything
                or (already is not None and not exclusive)
                or (not exclusive and all(not x for x in others.values()))
                or (exclusive and not others)
            )
            try:
                manager.acquire(txn, resource, mode)
                granted = True
            except LockError:
                granted = False
            assert granted == bool(compatible), (
                txn, resource, exclusive, holders)
            if granted:
                if already is not True:  # an X lock is never downgraded
                    holders[txn] = exclusive or (already or False)
        # release everything; the manager must end empty
        for txn in {t for t, _r, _x in ops}:
            manager.release_all(txn)
        stats = manager.statistics()
        assert stats.locks_held == 0
        assert stats.transactions_waiting == 0

    def test_stress_no_lost_updates(self, monkeypatch):
        """Many writer threads over two resources: the manager never
        grants conflicting exclusives (checked via a guarded counter)."""
        monkeypatch.setattr(locks, "DEADLOCK_CHECK_INTERVAL_S", 0.002)
        manager = LockManager()
        unsafe_counter = {"a": 0, "b": 0}
        iterations = 60

        def writer(txn_base: int):
            for i in range(iterations):
                txn = txn_base * 1000 + i
                resource = "a" if (txn_base + i) % 2 == 0 else "b"
                manager.acquire(txn, resource, LockMode.EXCLUSIVE)
                try:
                    value = unsafe_counter[resource]
                    unsafe_counter[resource] = value + 1
                finally:
                    manager.release_all(txn)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert unsafe_counter["a"] + unsafe_counter["b"] == 4 * iterations
        assert manager.statistics().locks_held == 0

    @given(readers=st.integers(1, 6))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_many_readers_coexist(self, readers):
        manager = LockManager()
        for txn in range(1, readers + 1):
            manager.acquire(txn, "shared_resource", LockMode.SHARED)
        assert manager.statistics().locks_held == readers
        for txn in range(1, readers + 1):
            manager.release_all(txn)
