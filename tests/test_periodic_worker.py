"""The one background-thread contract: ``PeriodicWorker`` and ``Backoff``.

The storage daemon, the autonomous tuner and the supervisor all run on
this worker, so the lifecycle rules are tested here once; the owners'
tests only check how they plug in.  Threads are synchronized with
events and clocks are virtual.
"""

import threading

import pytest

from repro.clock import VirtualClock
from repro.core import health
from repro.core.health import Backoff, PeriodicWorker
from repro.errors import MonitorError


class Gate:
    """A step that parks its first call until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            assert self.release.wait(timeout=10.0), "gate never released"


def make_worker(step=lambda: None, interval_s=3600.0,
                backoff=Backoff(1.0, 2.0, 300.0)):
    clock = VirtualClock(1_000.0)
    return PeriodicWorker("test-worker", interval_s, step, backoff,
                          clock), clock


@pytest.fixture
def short_join(monkeypatch):
    monkeypatch.setattr(health, "JOIN_TIMEOUT_S", 0.2)


class TestBackoff:
    @pytest.mark.parametrize("failures, delay", [
        (0, 0.0), (1, 1.0), (2, 2.0), (3, 4.0), (9, 256.0),
        (10, 300.0), (50, 300.0)])
    def test_grows_and_caps(self, failures, delay):
        assert Backoff(1.0, 2.0, 300.0).delay(failures) == delay

    def test_accounting_grows_caps_and_resets(self):
        worker, _clock = make_worker(backoff=Backoff(1.0, 2.0, 4.0))
        for expected in (1.0, 2.0, 4.0, 4.0):
            with pytest.raises(MonitorError):
                with worker.accounting():
                    raise MonitorError("down")
            assert worker.status().backoff_s == expected
        status = worker.status()
        assert (status.failures, status.consecutive_failures) == (4, 4)
        assert status.last_error == "MonitorError: down"
        with worker.accounting(cycle=False):
            pass
        status = worker.status()
        assert status.backoff_s == 0.0 and status.consecutive_failures == 0
        assert status.cycles == 0  # a non-cycle success counts nothing
        with worker.accounting():
            pass
        assert worker.status().cycles == 1

    def test_non_repro_errors_are_not_counted(self):
        worker, _clock = make_worker()
        with pytest.raises(ValueError):
            with worker.accounting():
                raise ValueError("a bug, not an outage")
        assert worker.status().failures == 0


class TestLifecycle:
    def test_double_start_refused(self):
        worker, _clock = make_worker()
        worker.start()
        try:
            with pytest.raises(MonitorError):
                worker.start()
            assert worker.status().running
        finally:
            worker.stop()
        assert not worker.is_alive()
        worker.start()  # restart over a dead thread is fine
        worker.stop()

    def test_start_stamps_the_due_time(self):
        worker, clock = make_worker(interval_s=30.0)
        with pytest.raises(MonitorError):
            with worker.accounting():
                raise MonitorError("down")
        worker.start()
        try:
            assert worker.status().last_heartbeat == clock.now()
            assert worker.due_at == clock.now() + 30.0 + 1.0
        finally:
            worker.stop()

    def test_loop_survives_failing_steps(self):
        done = threading.Event()
        calls = []

        def step():
            calls.append(1)
            with worker.accounting():
                if len(calls) < 3:
                    raise MonitorError("flaky")
            done.set()

        worker, _clock = make_worker(step, interval_s=0.0,
                                     backoff=Backoff(0.001, 2.0, 0.01))
        worker.start()
        try:
            assert done.wait(timeout=10.0)
        finally:
            worker.stop()
        status = worker.status()
        assert status.failures == 2 and status.cycles >= 1
        assert status.consecutive_failures == 0

    @pytest.mark.usefixtures("short_join")
    def test_hung_stop_keeps_handle_and_raises(self):
        gate = Gate()
        worker, _clock = make_worker(gate, interval_s=0.0)
        worker.start()
        assert gate.entered.wait(timeout=10.0)
        with pytest.raises(MonitorError):
            worker.stop()
        hung = worker._thread
        assert hung is not None and hung.is_alive()
        with pytest.raises(MonitorError):
            worker.start()  # refused while the hung thread lives
        gate.release.set()
        hung.join(timeout=10.0)
        assert not hung.is_alive()
        worker.stop()  # clean join now
        assert worker._thread is None

    @pytest.mark.usefixtures("short_join")
    def test_restart_supersedes_a_hung_thread(self):
        gate = Gate()
        worker, clock = make_worker(gate, interval_s=0.0)
        worker.start()
        assert gate.entered.wait(timeout=10.0)
        hung = worker._thread
        worker.interval_s = 3600.0  # the replacement just waits
        clock.advance(10.0)
        worker.restart()
        try:
            assert worker.is_alive() and worker._thread is not hung
            assert worker.status().restarts == 1
            due_at = worker.due_at
            assert due_at == clock.now() + 3600.0
            clock.advance(10.0)
            gate.release.set()
            hung.join(timeout=10.0)
            # The zombie exited at its wake-up without stamping.
            assert not hung.is_alive()
            assert worker.due_at == due_at
            assert gate.calls == 1
        finally:
            worker.stop()
