"""Overload-resilience tests: degradation ladder, admission gate, the
thread supervisor and the health surface.

Virtual clocks throughout, except two real-thread tests: the
supervisor thread restarting a stopped daemon, and sessions racing
ladder transitions.
"""

import json
import sys
import threading
import time

import pytest

from repro import faultsim
from repro.clock import VirtualClock
from repro.config import (
    DaemonConfig,
    EngineConfig,
    MonitorConfig,
    OverloadConfig,
)
from repro.core import autopilot, health, overload
from repro.core.autopilot import AutonomousTuner
from repro.core.health import PARKED, RESTARTING, RUNNING, Backoff, Supervisor
from repro.core.ima import WORKLOAD
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.overload import (
    COUNTS_ONLY,
    DETAILED,
    LEVEL_NAMES,
    SAMPLED,
    SHED,
    OverloadController,
    conservation_report,
)
from repro.core.sensors import StatementContext, statement_key
from repro.errors import InjectedFault, MonitorError, ReproError
from repro.execution.executor import ExecutionMetrics
from repro.invariants import conservation_violations
from repro.optimizer.cost_model import Cost
from repro.setups import attach_supervisor, daemon_setup, monitoring_setup
from repro.workloads import (
    NrefScale,
    ThreadedDriver,
    load_nref,
    point_query_statements,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faultsim.reset()
    yield
    faultsim.reset()


def _record(text_hash: int, session_id: int,
            ts: float = 0.0) -> tuple:
    return WORKLOAD.record(
        text_hash=text_hash, session_id=session_id, ts=ts,
        optimize_time_s=0.0, wallclock_s=0.0, estimate=Cost(),
        used_indexes="", metrics=ExecutionMetrics(), monitor_time_s=0.0)


def _complete(monitor: IntegratedMonitor, text_hash: int = 0) -> bool:
    """One statement that failed before its parse, through its
    terminal sensor and so the admission gate at the monitor's current
    level; True if its record was admitted."""
    appended = monitor.workload.total_appended
    MonitorSensors(monitor).statement_error(
        StatementContext(text_hash), "select", 1, "failed")
    return monitor.workload.total_appended > appended


# -- the ring-flood fault point ----------------------------------------------


class TestNewFaultPoints:
    def test_points_are_registered(self):
        assert "monitor.ring_flood" in faultsim.FAIL_POINTS
        assert not [point for point in faultsim.FAIL_POINTS
                    if point.startswith("daemon.")]

    def test_flood_for_duration_window(self):
        clock = VirtualClock(0.0)
        inj = faultsim.FaultInjector()
        inj.arm("monitor.ring_flood", "for-duration", duration_s=10.0,
                clock=clock)
        with pytest.raises(InjectedFault):
            inj.fire("monitor.ring_flood", clock=clock)
        clock.advance(11.0)
        inj.fire("monitor.ring_flood", clock=clock)  # window closed
        assert inj.stats("monitor.ring_flood")[0].armed is None

    def test_specs_parse_and_arm(self):
        inj = faultsim.FaultInjector()
        for spec in ("disk.read:once,latency=0.5",
                     "monitor.ring_flood:p=0.5,seed=9",
                     "workload_db.append:every-n=3"):
            faultsim.arm_from_spec(spec, injector=inj)
        assert inj.armed_points() == ("disk.read", "monitor.ring_flood",
                                      "workload_db.append")

    def test_ring_flood_forces_escalation(self):
        monitor = IntegratedMonitor(MonitorConfig(overload=OverloadConfig(
            escalate_dwell=1, recover_dwell=1)), VirtualClock(0.0))
        controller = OverloadController(monitor)
        faultsim.arm_from_spec("monitor.ring_flood:once")
        controller.observe()
        assert controller.level() == SAMPLED
        controller.observe()  # disarmed; empty ring pressure ~ 0
        assert controller.level() == DETAILED
        windows = controller.degraded_windows()
        assert len(windows) == 1 and windows[0]["ended_at"] is not None


# -- the admission gate -----------------------------------------------------


def _monitor(sample_k: int = 8) -> IntegratedMonitor:
    return IntegratedMonitor(
        MonitorConfig(overload=OverloadConfig(sample_k=sample_k)),
        VirtualClock(0.0))


class TestAdmissionGate:
    def test_detailed_admits_everything(self):
        monitor = _monitor()
        assert all(_complete(monitor) for _ in range(5))
        assert monitor.degradation_counters() == (5, 0, 0)

    def test_sampled_admits_one_in_k(self):
        monitor = _monitor(sample_k=3)
        monitor.set_degradation(SAMPLED)
        admitted = [_complete(monitor) for _ in range(6)]
        assert admitted == [False, False, True, False, False, True]
        assert monitor.degradation_counters() == (6, 4, 0)

    def test_counts_only_and_shed_suppress_but_count(self):
        monitor = _monitor()
        monitor.set_degradation(COUNTS_ONLY)
        assert not _complete(monitor)
        monitor.set_degradation(SHED)
        assert not _complete(monitor)
        assert monitor.degradation_counters() == (2, 1, 1)

    def test_sample_k_clamped_to_one(self):
        monitor = _monitor(sample_k=0)
        monitor.set_degradation(SAMPLED)
        assert _complete(monitor)  # k=1 degenerates to DETAILED


class _CountingClock(VirtualClock):
    """A virtual clock that counts its wall-clock reads."""

    reads = 0

    def now(self) -> float:
        self.reads += 1
        return super().now()


class TestOneLevelRead:
    """The terminal sensor's one read of the ladder level decides
    everything a statement records — the statement bump, the
    references, the gate and the append — so a transition after the
    statement began decides nothing about it."""

    # kind -> (text, prepared): each text is new to the monitor unless
    # it is prepared, which the fixture does by running it once.
    STATEMENTS = {
        "prepared select": ("select a from t where a = 1", True),
        "prepared dml": ("update t set a = 2 where a = 2", True),
        "parsed select": ("select a, a from t where a > 5", False),
        "error before parse": ("select 'open", False),
        "error after parse": ("select * from missing_table", False),
    }
    # rung -> (issued, sampled_out, shed) for one statement.
    COUNTERS = {DETAILED: (1, 0, 0), SAMPLED: (1, 1, 0),
                COUNTS_ONLY: (1, 1, 0), SHED: (1, 0, 1)}

    @pytest.mark.parametrize("kind", STATEMENTS)
    @pytest.mark.parametrize("rung", [DETAILED, SAMPLED, COUNTS_ONLY, SHED],
                             ids=[LEVEL_NAMES[level] for level in (
                                 DETAILED, SAMPLED, COUNTS_ONLY, SHED)])
    def test_terminal_level_decides(self, rung, kind):
        text, prepared = self.STATEMENTS[kind]
        clock = _CountingClock(1000.0)
        setup = monitoring_setup(clock=clock)
        setup.engine.create_database("db")
        session = setup.engine.connect("db")
        session.execute("create table t (a integer)")
        session.execute("insert into t values (1)")
        if prepared:
            session.execute(text)
        monitor, sensors = setup.monitor, session.sensors
        key = statement_key(text)
        before = monitor.statements.get(key)
        frequency = before.frequency if before is not None else 0
        references = len(monitor.references)
        appended = monitor.workload.total_appended
        counters = monitor.degradation_counters()
        # A parsed statement starts at the opposite end of the ladder
        # and the transition to ``rung`` lands right after it began; a
        # prepared one fires no sensor before its terminal one.
        start = sensors.statement_start
        started = []

        def statement_start(text_hash):
            started.append(text_hash)
            monitor.set_degradation(rung)
            return start(text_hash)

        sensors.statement_start = statement_start
        monitor.set_degradation(rung if prepared
                                else SHED if rung != SHED else DETAILED)
        clock.advance(2.0)  # a statistics sample is due
        samples = len(monitor.statistics)
        reads = clock.reads
        try:
            session.execute(text)
        except ReproError:
            assert kind.startswith("error")
        assert started == ([] if prepared else [key])
        assert tuple(after - earlier for after, earlier in zip(
            monitor.degradation_counters(), counters)) == self.COUNTERS[rung]
        assert conservation_violations(monitor) == []
        assert monitor.workload.total_appended - appended == (
            rung == DETAILED)
        # SHED reads no clock, takes no statistics sample and bumps
        # nothing; a statement that failed before its parse has no
        # statement record at any rung.
        assert clock.reads - reads == (rung != SHED)
        assert len(monitor.statistics) - samples == (
            rung != SHED and not kind.startswith("error"))
        if rung == DETAILED:
            assert WORKLOAD.record._make(
                monitor.workload.values()[-1]).ts == 1002.0
        after = monitor.statements.get(key)
        if kind == "error before parse":
            assert after is None
        else:
            assert (after.frequency if after is not None else 0) \
                == frequency + (rung != SHED)
        # Only the execution that inserts a statement's record logs its
        # references, and only above COUNTS_ONLY.
        assert (len(monitor.references) > references) == (
            not prepared and kind != "error before parse"
            and rung < COUNTS_ONLY)


class TestSensorGating:
    """The ladder through real SQL traffic, one level at a time."""

    def _session(self, sample_k: int = 8):
        setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
            overload=OverloadConfig(sample_k=sample_k))),
            clock=VirtualClock(1000.0))
        engine = setup.engine
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a integer)")
        session.execute("insert into t values (1)")
        return setup, session

    def test_detailed_records_everything(self):
        setup, session = self._session()
        monitor = setup.monitor
        workload_before = len(monitor.workload)
        statements_before = len(monitor.statements)
        session.execute("select a from t where a = 1")
        assert len(monitor.workload) == workload_before + 1
        assert len(monitor.statements) == statements_before + 1
        assert conservation_violations(monitor) == []

    def test_sampled_keeps_one_in_k_workload_records(self):
        setup, session = self._session(sample_k=4)
        monitor = setup.monitor
        monitor.set_degradation(SAMPLED)
        before = len(monitor.workload)
        for _ in range(8):
            session.execute("select a from t where a = 1")
        assert len(monitor.workload) == before + 2
        assert conservation_violations(monitor) == []

    def test_counts_only_bumps_statements_not_workload(self):
        setup, session = self._session(sample_k=4)
        monitor = setup.monitor
        monitor.set_degradation(COUNTS_ONLY)
        workload_before = len(monitor.workload)
        references_before = len(monitor.references)
        statements_before = len(monitor.statements)
        session.execute("select a from t where a = 41")  # new text
        assert len(monitor.statements) == statements_before + 1
        assert len(monitor.workload) == workload_before
        assert len(monitor.references) == references_before
        assert conservation_violations(monitor) == []

    def test_shed_records_nothing_but_counts(self):
        setup, session = self._session(sample_k=4)
        monitor = setup.monitor
        monitor.set_degradation(SHED)
        workload_before = len(monitor.workload)
        statements_before = len(monitor.statements)
        _issued, _sampled, shed_before = monitor.degradation_counters()
        for _ in range(3):
            session.execute("select a from t where a = 99")
        assert len(monitor.workload) == workload_before
        assert len(monitor.statements) == statements_before
        assert monitor.degradation_counters()[2] == shed_before + 3
        assert conservation_violations(monitor) == []

    def test_conservation_across_level_changes(self):
        setup, session = self._session(sample_k=2)
        monitor = setup.monitor
        for level in (DETAILED, SAMPLED, COUNTS_ONLY, SHED, DETAILED):
            monitor.set_degradation(level)
            for _ in range(5):
                session.execute("select a from t where a = 1")
        report = conservation_report(monitor)
        assert report["issued"] == (report["admitted"]
                                    + report["sampled_out"]
                                    + report["shed"])
        assert conservation_violations(monitor) == []


# -- the controller ---------------------------------------------------------


class TestOverloadController:
    def _controller(self, **overrides):
        config = OverloadConfig(**{"escalate_dwell": 2, "recover_dwell": 2,
                                   **overrides})
        monitor = IntegratedMonitor(MonitorConfig(overload=config),
                                    VirtualClock(0.0))
        return OverloadController(monitor), monitor

    def _pressure(self, controller, fraction: float) -> None:
        """One observation at the given loss pressure."""
        capacity = controller.monitor.workload.capacity
        controller.note_poll(0.0, 0, 100, int(capacity * fraction))

    def test_escalation_needs_dwell(self):
        controller, _ = self._controller()
        self._pressure(controller, 1.0)
        assert controller.level() == DETAILED  # dwell 2: not yet
        self._pressure(controller, 1.0)
        assert controller.level() == SAMPLED

    def test_dead_band_resets_both_streaks(self):
        controller, _ = self._controller()
        self._pressure(controller, 1.0)
        self._pressure(controller, 0.5)  # dead band: streak lost
        self._pressure(controller, 1.0)
        assert controller.level() == DETAILED
        self._pressure(controller, 1.0)
        assert controller.level() == SAMPLED

    def test_recovery_one_rung_per_dwell(self):
        controller, _ = self._controller()
        for _ in range(4):
            self._pressure(controller, 1.0)
        assert controller.level() == COUNTS_ONLY
        for _ in range(2):
            self._pressure(controller, 0.0)
        assert controller.level() == SAMPLED
        for _ in range(2):
            self._pressure(controller, 0.0)
        assert controller.level() == DETAILED

    def test_loss_component_decays_on_clean_polls(self):
        controller, _ = self._controller()
        self._pressure(controller, 1.0)
        controller.note_poll(0.0, 0, 100)  # clean poll: no loss
        assert controller.snapshot()["loss_component"] == 0.0

    def test_degraded_windows_open_close_and_bound(self, monkeypatch):
        monkeypatch.setattr(overload, "WINDOW_HISTORY", 2)
        controller, _ = self._controller(escalate_dwell=1, recover_dwell=1)
        for _ in range(3):
            self._pressure(controller, 1.0)  # degrade (opens window)
            self._pressure(controller, 0.0)  # recover (closes it)
        windows = controller.degraded_windows()
        assert len(windows) == 2  # oldest trimmed
        assert all(w["ended_at"] is not None for w in windows)
        assert all(w["peak_level_name"] == "SAMPLED" for w in windows)

    def test_full_ring_alone_never_escalates(self):
        controller, monitor = self._controller(escalate_dwell=1)
        for i in range(monitor.workload.capacity + 10):
            monitor.workload.append(_record(i, 1))
        for _ in range(5):
            controller.note_poll(0.0, 0, 100)
        assert controller.level() == DETAILED

    def test_snapshot_shape(self):
        controller, _ = self._controller()
        snapshot = controller.snapshot()
        assert set(snapshot) == {"level", "level_name", "pressure",
                                 "loss_component",
                                 "escalate_streak", "recover_streak",
                                 "signals", "observations", "transitions",
                                 "degraded_windows", "conservation"}
        assert snapshot["level_name"] == "DETAILED"
        assert snapshot["conservation"]["issued"] == 0
        json.dumps(snapshot)  # health surface requires JSON shape


# -- daemon thread supervision ----------------------------------------------


def _daemon_setup():
    return daemon_setup("nref", clock=VirtualClock(1_000.0))


class TestWorkerDeathAndParking:
    def test_daemon_restart_and_heartbeat(self):
        setup = _daemon_setup()
        daemon = setup.daemon
        daemon.start()
        try:
            assert daemon.is_alive()
            assert daemon.status().last_heartbeat is not None
            daemon.restart()
            assert daemon.is_alive()
            assert daemon.status().restarts == 1
        finally:
            daemon.stop(final_flush=False)
        assert not daemon.is_alive()


# -- the supervisor ---------------------------------------------------------


class _FakeWorker:
    def __init__(self) -> None:
        self.alive = True
        self.due_at: float | None = None
        self.restarts = 0

    def is_alive(self) -> bool:
        return self.alive

    def restart(self) -> None:
        self.restarts += 1


@pytest.fixture
def slow_restarts(monkeypatch):
    """Restart backoff of 5 s doubling, so the tests' tick times fall
    clearly inside or past each delay."""
    monkeypatch.setattr(health, "RETRY_BACKOFF", Backoff(5.0, 2.0, 60.0))


@pytest.fixture
def tight_supervision(monkeypatch):
    """A 10 s heartbeat timeout, parking after 2 restarts for 100 s."""
    monkeypatch.setattr(health, "HEARTBEAT_TIMEOUT_S", 10.0)
    monkeypatch.setattr(health, "PARK_AFTER_RESTARTS", 2)
    monkeypatch.setattr(health, "PARK_COOLDOWN_S", 100.0)


def _supervisor():
    worker = _FakeWorker()
    supervisor = Supervisor(VirtualClock(0.0))
    supervisor.watch("w", worker)
    return supervisor, worker


@pytest.mark.usefixtures("slow_restarts", "tight_supervision")
class TestSupervisor:
    def test_healthy_watch_stays_running(self):
        supervisor, _worker = _supervisor()
        supervisor.tick(now=1.0)
        assert supervisor.states() == {"w": RUNNING}

    def test_dead_watch_restarts_with_backoff(self):
        supervisor, worker = _supervisor()
        worker.alive = False
        supervisor.tick(now=1.0)
        assert supervisor.states() == {"w": RESTARTING}
        assert worker.restarts == 1
        supervisor.tick(now=2.0)  # within backoff: no second restart
        assert worker.restarts == 1
        supervisor.tick(now=7.0)  # past 1+5s backoff
        assert worker.restarts == 2

    def test_parks_after_restart_budget_then_half_opens(self):
        supervisor, worker = _supervisor()
        worker.alive = False
        supervisor.tick(now=1.0)   # restart 1 (streak 1)
        supervisor.tick(now=10.0)  # restart 2 (streak 2)
        supervisor.tick(now=30.0)  # streak at budget: PARK, no restart
        assert supervisor.states() == {"w": PARKED}
        assert worker.restarts == 2
        supervisor.tick(now=50.0)  # cooling down: still parked, no call
        assert worker.restarts == 2
        supervisor.tick(now=131.0)  # past cooldown: half-open restart
        assert worker.restarts == 3
        assert supervisor.states() == {"w": RESTARTING}

    def test_healthy_tick_resets_streak_and_unparks(self):
        supervisor, worker = _supervisor()
        worker.alive = False
        supervisor.tick(now=1.0)
        worker.alive = True
        supervisor.tick(now=2.0)
        assert supervisor.states() == {"w": RUNNING}
        snapshot = supervisor.snapshot()
        assert snapshot["watches"][0]["restart_streak"] == 0

    def test_stale_heartbeat_is_unhealthy_even_if_alive(self):
        supervisor, worker = _supervisor()
        worker.due_at = 0.0
        supervisor.tick(now=5.0)  # 5 s past due <= 10: healthy
        assert supervisor.states() == {"w": RUNNING}
        supervisor.tick(now=50.0)  # 50 s past due > 10: hung
        assert supervisor.states() == {"w": RESTARTING}
        assert worker.restarts == 1

    def test_restart_errors_are_contained(self):
        supervisor, worker = _supervisor()
        worker.alive = False

        def bad_restart() -> None:
            raise MonitorError("restart exploded")

        worker.restart = bad_restart
        supervisor.tick(now=1.0)  # must not raise
        watch = supervisor.snapshot()["watches"][0]
        assert watch["state"] == RESTARTING
        assert "restart exploded" in watch["last_error"]

    def test_snapshot_is_json_shaped(self):
        supervisor, _worker = _supervisor()
        supervisor.tick(now=1.0)
        json.dumps(supervisor.snapshot())


class TestDueTimeSupervision:
    """A worker is judged by the time it promised to wake, not by the
    age of its last stamp: a loop waiting out a long interval or a
    backoff is healthy while it waits."""

    def test_long_interval_tuner_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(autopilot, "CYCLE_INTERVAL_S", 3600.0)
        clock = VirtualClock(1_000.0)
        setup = daemon_setup(
            "db", clock=clock,
            daemon_config=DaemonConfig(poll_interval_s=3600.0))
        tuner = AutonomousTuner(
            setup.engine, "db", setup.workload_db, daemon=setup.daemon)
        supervisor = attach_supervisor(setup, tuner)
        setup.daemon.start()
        tuner.start()
        try:
            supervisor.tick(now=clock.now() + 60.0)
            assert supervisor.states() == {"storage-daemon": RUNNING,
                                           "autonomous-tuner": RUNNING}
            assert tuner.status().restarts == 0
        finally:
            tuner.stop()
            setup.daemon.stop(final_flush=False)

    def test_backed_off_daemon_is_not_restarted_again(self):
        clock = VirtualClock(1_000.0)
        setup = daemon_setup("db", clock=clock)
        daemon = setup.daemon
        supervisor = attach_supervisor(setup)
        daemon.start()
        try:
            faultsim.arm_from_spec("session.execute:every-n=1")
            for _ in range(3):
                with pytest.raises(ReproError):
                    daemon.poll_once()
            faultsim.reset()
            assert daemon.status().backoff_s == 4.0
            daemon.restart()
            # Due at 30 s interval + 4 s backoff: 32 s in is not late.
            supervisor.tick(now=clock.now() + 32.0)
            assert supervisor.states() == {"storage-daemon": RUNNING}
            assert daemon.status().restarts == 1
        finally:
            daemon.stop(final_flush=False)


class TestSupervisorThread:
    def test_supervisor_thread_restarts_a_stopped_daemon(self,
                                                         monkeypatch):
        """On a real clock, a started supervisor restarts a poll
        thread that stopped."""
        monkeypatch.setattr(health, "CHECK_INTERVAL_S", 0.01)
        setup = daemon_setup("db")
        daemon = setup.daemon
        supervisor = attach_supervisor(setup)
        daemon.start()
        supervisor.start()
        try:
            daemon.stop(final_flush=False)
            deadline = time.monotonic() + 5.0
            while not (daemon.is_alive()
                       and daemon.status().restarts >= 1):
                assert time.monotonic() < deadline, \
                    "the supervisor did not restart the stopped daemon"
                time.sleep(0.01)
        finally:
            supervisor.stop()
            daemon.stop(final_flush=False)
        assert supervisor.snapshot()["watches"][0]["restarts"] >= 1


# -- the engine health surface ----------------------------------------------


class TestHealthSurface:
    def test_sick_provider_reports_error_not_raise(self, monkeypatch):
        setup = _daemon_setup()

        def sick() -> dict:
            raise ValueError("kaput")

        monkeypatch.setattr(setup.controller, "snapshot", sick)
        snapshot = setup.health()
        assert snapshot["overload"] == {"error": "ValueError: kaput"}
        assert "engine" in snapshot and "generated_at" in snapshot

    def test_daemon_setup_wires_sources_and_supervisor(self):
        setup = _daemon_setup()
        attach_supervisor(setup)
        for i in range(3):
            setup.monitor.workload.append(_record(i, 1))
        setup.daemon.poll_once()
        snapshot = setup.health()
        assert set(snapshot) >= {"engine", "daemon", "overload",
                                 "supervisor"}
        assert snapshot["daemon"]["cycles"] == 1
        assert snapshot["overload"]["level_name"] == "DETAILED"
        names = [w["name"] for w in snapshot["supervisor"]["watches"]]
        assert names == ["storage-daemon"]
        json.dumps(snapshot)  # the whole surface must serialize


# -- the monitor's views under SHED and clears -------------------------------


class TestMergedViewsDegraded:
    def test_shed_shard_serves_its_frozen_window(self):
        monitor = _monitor()
        for i in range(3):
            assert _complete(monitor, i)
            monitor.record_statement(f"select {i}", i, now=float(i))
        monitor.set_degradation(SHED)
        # SHED gates *admission*, not the view: already-recorded rows
        # stay readable in their seq order.
        assert not _complete(monitor)
        seqs = [seq for seq, _r in monitor.workload.snapshot()]
        assert seqs == [1, 2, 3]
        assert monitor.statements.get(2) is not None
        assert conservation_report(monitor)["shed"] == 1
        assert conservation_violations(monitor) == []

    def test_clear_resets_windows_not_conservation(self):
        monitor = _monitor(sample_k=2)
        monitor.set_degradation(SAMPLED)
        assert not _complete(monitor)
        assert _complete(monitor)
        monitor.workload.clear()
        assert len(monitor.workload) == 0
        # total_appended survives the clear, so the ledger still holds.
        assert conservation_violations(monitor) == []


# -- shell surface and storm smoke ------------------------------------------


class TestShellHealth:
    @pytest.fixture
    def shell(self):
        from repro.cli import Shell
        instance = Shell("healthdb")
        yield instance
        instance.close()

    def test_health_command_returns_full_snapshot(self, shell):
        payload = json.loads(shell.handle("\\health"))
        assert set(payload) >= {"engine", "daemon", "overload",
                                "supervisor"}
        watch_names = {w["name"]
                       for w in payload["supervisor"]["watches"]}
        assert watch_names == {"storage-daemon", "autonomous-tuner"}

    def test_daemon_status_shows_worker_lines(self, shell):
        text = shell.handle("\\daemon status")
        assert "restarts: 0, last heartbeat: never" in text

    def test_help_mentions_health(self, shell):
        assert "\\health" in shell.handle("\\help")


class TestStormSmoke:
    def test_sessions_race_ladder_transitions(self):
        """Concurrent sessions while a second thread walks the ladder
        DETAILED -> SAMPLED -> COUNTS_ONLY -> SHED -> DETAILED: the
        conservation ledger must still balance exactly and count every
        statement once.  A statement is counted at the rung it started
        on, and at a transition each session has at most one statement
        in flight, started on the rung before; so the walker leaves a
        rung only after ``sessions + sample_k`` more statements were
        issued, at least ``sample_k`` of them started on it.  The
        sessions run whole passes until the lap is done, so every rung
        sees traffic however the threads are scheduled."""
        sessions, statements, sample_k = 4, 200, 3
        setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
            overload=OverloadConfig(sample_k=sample_k))))
        monitor = setup.monitor
        scale = NrefScale(proteins=20)
        load_nref(setup.engine.create_database("nref"), scale)
        driver = ThreadedDriver(setup.engine, "nref", [
            point_query_statements(statements, scale, seed=index)
            for index in range(sessions)])
        issued_before = monitor.degradation_counters()[0]
        stop = threading.Event()

        def walk_ladder() -> None:
            for level in (SAMPLED, COUNTS_ONLY, SHED, DETAILED):
                monitor.set_degradation(level)
                target = (monitor.degradation_counters()[0]
                          + sessions + sample_k)
                while (not stop.is_set()
                       and monitor.degradation_counters()[0] < target):
                    time.sleep(0.0001)

        walker = threading.Thread(target=walk_ladder, daemon=True)
        # Hand the GIL over often, so the walk interleaves with the
        # sessions' statements.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0001)
        passes = 0
        try:
            walker.start()
            while walker.is_alive() and passes < 20:
                assert driver.run_pass().errors == 0
                passes += 1
            lapped = not walker.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            walker.join(timeout=5.0)
            driver.close()
        assert lapped, "the ladder walk never finished its lap"
        assert monitor.degradation_level == DETAILED
        assert conservation_violations(monitor) == []
        issued, sampled_out, shed = monitor.degradation_counters()
        assert issued - issued_before == passes * sessions * statements
        assert sampled_out >= sample_k - 1 and shed >= sample_k

    def test_chaos_storm_reaches_shed_and_recovers(self):
        from repro.chaos import SoakConfig, run_soak
        report = run_soak(SoakConfig(seed=4, rounds=4, storm=True))
        assert report.peak_level == SHED
        assert report.conservation_sweeps == 4
        assert report.health is not None
        assert "storm: peak SHED" in report.describe()


LEVEL_NAME_SET = set(LEVEL_NAMES)


def test_level_names_cover_ladder():
    assert LEVEL_NAME_SET == {"DETAILED", "SAMPLED", "COUNTS_ONLY", "SHED"}
    assert [DETAILED, SAMPLED, COUNTS_ONLY, SHED] == [0, 1, 2, 3]
