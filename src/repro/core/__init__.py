"""The paper's contribution: integrated monitoring for autonomous tuning.

Subpackages/modules map to the paper's control loop (figure 1):

* **monitoring** — :mod:`repro.core.monitor` (the sensors the engine
  core calls, and the ring-buffered in-memory data they fill; statement
  keys and the per-statement context live in :mod:`repro.core.sensors`),
  exposed over SQL by :mod:`repro.core.ima`;
* **storing** — :mod:`repro.core.daemon` polls IMA and appends to the
  persistent workload database (:mod:`repro.core.workload_db`), with
  alerting via :mod:`repro.core.alerts`;
* **analysing** — :mod:`repro.core.analyzer` scans the workload DB,
  applies rules and runs what-if index analysis;
* **implementing** — :class:`repro.core.analyzer.recommendations`
  applies accepted recommendations back to the database.

:mod:`repro.core.watchdog` implements the *contrasting* baseline the
paper argues against: an external watchdog that polls the DBMS from
outside instead of sensing inside the core.
"""

from repro.core.sensors import StatementContext
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.autopilot import AutonomousTuner, TuningPolicy
from repro.core.ima import register_ima_tables
from repro.core.daemon import StorageDaemon
from repro.core.workload_db import WorkloadDatabase
from repro.core.watchdog import WatchdogMonitor

__all__ = [
    "AutonomousTuner",
    "IntegratedMonitor",
    "MonitorSensors",
    "StatementContext",
    "StorageDaemon",
    "TuningPolicy",
    "WatchdogMonitor",
    "WorkloadDatabase",
    "register_ima_tables",
]
