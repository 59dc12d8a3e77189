"""Convenience factories for the paper's experimental setups.

Section V uses three Ingres instances: *Original* (no monitoring code),
*Monitoring* (sensors compiled in) and *Daemon* (monitoring plus the
storage daemon).  These helpers build the equivalent configurations so
examples, tests and benchmarks share one definition.

The daemon setup also wires the overload-resilience subsystem
(:mod:`repro.core.overload`): an :class:`OverloadController` attached
to the daemon (fed after every poll).  :meth:`Setup.health` reports the
engine, the daemon, the ladder and — once :func:`attach_supervisor` is
called — the thread supervisor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.clock import Clock
from repro.config import DaemonConfig, EngineConfig
from repro.core.daemon import StorageDaemon
from repro.core.health import Supervisor
from repro.core.ima import register_ima_tables
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.overload import OverloadController
from repro.core.workload_db import WorkloadDatabase
from repro.engine.engine import EngineInstance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.autopilot import AutonomousTuner


@dataclass
class Setup:
    """One engine configuration plus its monitoring attachments."""

    name: str
    engine: EngineInstance
    monitor: IntegratedMonitor | None = None
    workload_db: WorkloadDatabase | None = None
    daemon: StorageDaemon | None = None
    controller: OverloadController | None = None
    supervisor: Supervisor | None = None

    def health(self) -> dict[str, Any]:
        """One health snapshot: the engine's statistics plus the daemon,
        the overload ladder and the supervisor, those attached.

        Never raises: a part that fails reports ``{"error": ...}`` under
        its name instead of breaking the surface — health must stay
        readable precisely when things are going wrong.
        """
        snapshot: dict[str, Any] = {
            "generated_at": self.engine.clock.now(),
            "engine": dict(self.engine.system_statistics()),
        }
        parts: list[tuple[str, Callable[[], Any]]] = []
        daemon = self.daemon
        if daemon is not None:
            parts.append(("daemon", lambda: asdict(daemon.status())))
        if self.controller is not None:
            parts.append(("overload", self.controller.snapshot))
        if self.supervisor is not None:
            parts.append(("supervisor", self.supervisor.snapshot))
        for name, provider in parts:
            try:
                snapshot[name] = provider()
            except Exception as error:  # noqa: BLE001 - the health surface
                # reports sick subsystems, it never propagates them.
                snapshot[name] = {
                    "error": f"{type(error).__name__}: {error}"}
        return snapshot


def original_setup(config: EngineConfig | None = None,
                   clock: Clock | None = None) -> Setup:
    """The untouched instance: no sensors, so a statement runs no
    monitoring code."""
    engine = EngineInstance(config, clock=clock)
    return Setup(name="original", engine=engine)


def monitoring_setup(config: EngineConfig | None = None,
                     clock: Clock | None = None) -> Setup:
    """Monitoring code "compiled in": one :class:`IntegratedMonitor`
    fed by every session's sensors, no daemon."""
    engine = EngineInstance(config, clock=clock)
    monitor = IntegratedMonitor(engine.config.monitor, engine.clock)
    engine.sensors = MonitorSensors(monitor)
    return Setup(name="monitoring", engine=engine, monitor=monitor)


def daemon_setup(database_name: str,
                 config: EngineConfig | None = None,
                 clock: Clock | None = None,
                 daemon_config: DaemonConfig | None = None) -> Setup:
    """Monitoring plus the storage daemon persisting to a workload DB.

    The engine and the named database are created, IMA virtual tables
    are registered in it, and a daemon is wired up (not started — call
    ``setup.daemon.start()`` or drive ``poll_once`` manually).

    An :class:`OverloadController` over the monitor (with its
    ``MonitorConfig.overload`` tunables) is attached to the daemon."""
    setup = monitoring_setup(config, clock)
    engine = setup.engine
    database = engine.create_database(database_name)
    assert setup.monitor is not None
    register_ima_tables(database, setup.monitor)
    workload_db = WorkloadDatabase(engine.config, engine.clock)
    daemon = StorageDaemon(engine, database_name, workload_db,
                           daemon_config or engine.config.daemon)
    setup.name = "daemon"
    setup.workload_db = workload_db
    setup.daemon = daemon
    controller = OverloadController(setup.monitor)
    daemon.attach_controller(controller)
    setup.controller = controller
    return setup


def attach_supervisor(setup: Setup,
                      tuner: "AutonomousTuner | None" = None) -> Supervisor:
    """Build a :class:`Supervisor` watching the setup's daemon (and
    optionally an :class:`~repro.core.autopilot.AutonomousTuner`),
    reported by :meth:`Setup.health`.  Not started — call
    ``supervisor.start()`` or drive ``tick()`` manually."""
    engine = setup.engine
    supervisor = Supervisor(engine.config.supervisor, engine.clock)
    daemon = setup.daemon
    if daemon is not None:
        supervisor.watch("storage-daemon", daemon.worker)
    if tuner is not None:
        supervisor.watch("autonomous-tuner", tuner.worker)
    setup.supervisor = supervisor
    return supervisor
