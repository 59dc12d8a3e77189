"""Tests for repro.faultsim: trigger modes, actions, specs and seams."""

import pytest

from repro import faultsim
from repro.clock import SystemClock, VirtualClock
from repro.config import DaemonConfig, EngineConfig
from repro.core.daemon import POLL_BACKOFF
from repro.core.health import JOIN_TIMEOUT_S, RETRY_BACKOFF, Backoff
from repro.core.workload_db import WorkloadDatabase
from repro.errors import (
    ExecutionError,
    FaultError,
    InjectedFault,
    MonitorError,
    StorageError,
)
from repro.storage.disk import DiskManager


class TestTriggerModes:
    def test_once_fires_then_disarms(self):
        inj = faultsim.FaultInjector()
        inj.arm("disk.read", "once")
        with pytest.raises(InjectedFault):
            inj.fire("disk.read")
        inj.fire("disk.read")  # no longer armed
        stats = inj.stats("disk.read")[0]
        assert stats.triggers == 1
        assert stats.armed is None

    def test_every_n(self):
        inj = faultsim.FaultInjector()
        inj.arm("disk.write", "every-n", n=3)
        outcomes = []
        for _ in range(9):
            try:
                inj.fire("disk.write")
                outcomes.append(False)
            except InjectedFault:
                outcomes.append(True)
        assert outcomes == [False, False, True] * 3

    def test_after_skips_first_evaluations(self):
        inj = faultsim.FaultInjector()
        inj.arm("disk.read", "once", after=2)
        inj.fire("disk.read")
        inj.fire("disk.read")
        with pytest.raises(InjectedFault):
            inj.fire("disk.read")

    def test_for_duration_window(self):
        clock = VirtualClock(100.0)
        inj = faultsim.FaultInjector()
        inj.arm("session.execute", "for-duration", duration_s=10.0,
                clock=clock)
        with pytest.raises(InjectedFault):
            inj.fire("session.execute", clock=clock)
        clock.advance(9.0)
        with pytest.raises(InjectedFault):
            inj.fire("session.execute", clock=clock)
        clock.advance(2.0)  # past the window: auto-disarms
        inj.fire("session.execute", clock=clock)
        assert inj.stats("session.execute")[0].armed is None

    def test_for_duration_requires_clock(self):
        inj = faultsim.FaultInjector()
        with pytest.raises(FaultError):
            inj.arm("disk.read", "for-duration", duration_s=5.0)

    def test_probability_is_seeded_and_deterministic(self):
        def run():
            inj = faultsim.FaultInjector()
            inj.arm("disk.read", "probability", probability=0.5, seed=42)
            outcomes = []
            for _ in range(50):
                try:
                    inj.fire("disk.read")
                    outcomes.append(False)
                except InjectedFault:
                    outcomes.append(True)
            return outcomes

        first, second = run(), run()
        assert first == second
        assert any(first) and not all(first)

    def test_unknown_point_rejected(self):
        inj = faultsim.FaultInjector()
        with pytest.raises(FaultError):
            inj.arm("nonexistent.point", "once")

    def test_unknown_mode_rejected(self):
        inj = faultsim.FaultInjector()
        with pytest.raises(FaultError):
            inj.arm("disk.read", "sometimes")

    def test_bad_probability_rejected(self):
        inj = faultsim.FaultInjector()
        with pytest.raises(FaultError):
            inj.arm("disk.read", "probability", probability=1.5)


class TestActions:
    def test_custom_error_type(self):
        inj = faultsim.FaultInjector()
        inj.arm("disk.read", "once")
        with pytest.raises(StorageError):
            inj.fire("disk.read", error=StorageError)

    def test_latency_advances_clock_instead_of_raising(self):
        clock = VirtualClock(50.0)
        inj = faultsim.FaultInjector()
        inj.arm("session.execute", "every-n", n=1, latency_s=0.25)
        inj.fire("session.execute", clock=clock)
        inj.fire("session.execute", clock=clock)
        assert clock.now() == pytest.approx(50.5)
        assert inj.stats("session.execute")[0].latency_injected_s == \
            pytest.approx(0.5)

    def test_on_fire_hook_replaces_error(self):
        inj = faultsim.FaultInjector()
        seen = []
        inj.arm("disk.read", "every-n", n=1, on_fire=seen.append)
        inj.fire("disk.read")
        inj.fire("disk.read")
        assert seen == ["disk.read", "disk.read"]

    def test_clock_jump_accumulates_and_persists(self):
        inj = faultsim.FaultInjector()
        inj.arm("clock.now", "every-n", n=1, jump_s=3600.0)
        assert inj.clock_offset() == pytest.approx(3600.0)
        assert inj.clock_offset() == pytest.approx(7200.0)
        inj.disarm("clock.now")
        # Offset persists after disarm: a stepped clock stays stepped.
        assert inj.clock_offset() == pytest.approx(7200.0)
        inj.reset()
        assert inj.clock_offset() == 0.0

    def test_stats_survive_disarm_and_rearm(self):
        inj = faultsim.FaultInjector()
        inj.arm("disk.read", "once")
        with pytest.raises(InjectedFault):
            inj.fire("disk.read")
        inj.arm("disk.read", "once")
        with pytest.raises(InjectedFault):
            inj.fire("disk.read")
        stats = inj.stats("disk.read")[0]
        assert stats.triggers == 2
        assert stats.errors_raised == 2


class TestSpecs:
    def test_parse_simple(self):
        assert faultsim.parse_spec("disk.read:once") == \
            ("disk.read", "once", {})

    def test_parse_mode_value_shorthand(self):
        point, mode, options = faultsim.parse_spec(
            "session.execute:every-n=3,latency=0.5")
        assert (point, mode) == ("session.execute", "every-n")
        assert options == {"n": 3.0, "latency": 0.5}

    def test_parse_probability_alias(self):
        point, mode, options = faultsim.parse_spec(
            "disk.write:p=0.2,seed=42")
        assert mode == "probability"
        assert options == {"probability": 0.2, "seed": 42.0}

    def test_parse_rejects_bad_shapes(self):
        for bad in ("disk.read", "disk.read:", "disk.read:once,latency",
                    "disk.read:once,bogus=1"):
            with pytest.raises(FaultError):
                faultsim.parse_spec(bad)

    def test_arm_from_spec_on_private_injector(self):
        inj = faultsim.FaultInjector()
        faultsim.arm_from_spec("clock.now:once,jump=60", injector=inj)
        assert inj.clock_offset() == pytest.approx(60.0)

    def test_arm_from_spec_unknown_point(self):
        with pytest.raises(FaultError):
            faultsim.arm_from_spec("bogus.point:once",
                                   injector=faultsim.FaultInjector())


class TestWiredSeams:
    """The process-global injector behind the real pipeline seams.

    The autouse conftest fixture resets the global injector after each
    test, so arming it here cannot leak.
    """

    def test_disk_read_fault(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"data")
        faultsim.arm_from_spec("disk.read:once")
        with pytest.raises(StorageError):
            disk.read(page)
        assert disk.read(page) == b"data"  # auto-disarmed

    def test_disk_write_fault_leaves_page_intact(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"before")
        faultsim.arm_from_spec("disk.write:once")
        with pytest.raises(StorageError):
            disk.write(page, b"after")
        assert disk.read(page) == b"before"

    def test_disk_latency_spike_charges_clock(self):
        clock = VirtualClock(10.0)
        disk = DiskManager(clock=clock)
        page = disk.allocate()
        disk.write(page, b"x")
        faultsim.arm_from_spec("disk.read:every-n=1,latency=0.1")
        disk.read(page)
        assert clock.now() == pytest.approx(10.1)

    def test_session_execute_fault_is_monitored(self):
        from repro.setups import monitoring_setup
        clock = VirtualClock(1000.0)
        setup = monitoring_setup(clock=clock)
        setup.engine.create_database("db")
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        faultsim.arm_from_spec("session.execute:once")
        with pytest.raises(ExecutionError):
            session.execute("select a from t")
        # The injected failure went through the error sensor like a
        # real one and the statement still works afterwards.
        assert session.execute("select a from t").rows == []

    def test_workload_db_append_fault(self):
        wdb = WorkloadDatabase(EngineConfig())
        faultsim.arm_from_spec("workload_db.append:once")
        with pytest.raises(MonitorError):
            wdb.append("wl_indexes", [("i", "t", 1)], captured_at=1.0)
        wdb.append("wl_indexes", [("i", "t", 1)], captured_at=1.0)
        assert wdb.row_count("wl_indexes") == 1

    def test_workload_db_purge_fault(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("i", "t", 1)], captured_at=1.0)
        faultsim.arm_from_spec("workload_db.purge:once")
        with pytest.raises(MonitorError):
            wdb.purge_older_than(100.0)
        assert wdb.purge_older_than(100.0) == 1

    def test_clock_jump_moves_now_not_monotonic(self):
        clock = VirtualClock(500.0)
        faultsim.arm_from_spec("clock.now:once,jump=3600")
        assert clock.now() == pytest.approx(4100.0)
        assert clock.monotonic() == pytest.approx(500.0)  # immune
        assert clock.now() == pytest.approx(4100.0)  # offset persists

    def test_system_clock_jump(self):
        import time
        clock = SystemClock()
        faultsim.arm_from_spec("clock.now:once,jump=-7200")
        assert clock.now() < time.time() - 7000

    def test_unarmed_seams_are_free_of_side_effects(self):
        disk = DiskManager()
        page = disk.allocate()
        disk.write(page, b"ok")
        assert disk.read(page) == b"ok"
        assert faultsim.get_injector().stats() == ()


class TestDefaultDaemonConfig:
    def test_new_fields_have_sane_defaults(self):
        config = DaemonConfig()
        assert config.max_pending_rows > 0
        # Retry timings are module constants, not config fields.
        assert POLL_BACKOFF == Backoff(1.0, 2.0, 300.0)
        assert RETRY_BACKOFF == Backoff(1.0, 2.0, 60.0)
        assert JOIN_TIMEOUT_S == 5.0
