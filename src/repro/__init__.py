"""repro: integrated performance monitoring for autonomous tuning.

A from-scratch reproduction of Thiem & Sattler, *An Integrated Approach
to Performance Monitoring for Autonomous Tuning* (ICDE 2009), including
the host DBMS substrate (SQL front-end, cost-based optimizer, heap and
B-Tree storage, buffer pool, lock manager) the monitoring is integrated
into.

Quickstart::

    from repro import daemon_setup
    from repro.core.analyzer import Analyzer

    setup = daemon_setup("mydb")
    session = setup.engine.connect("mydb")
    session.execute("create table t (a int not null, b varchar(20), "
                    "primary key (a))")
    session.execute("insert into t values (1, 'hello')")
    print(session.execute("select * from t").rows)

    setup.daemon.poll_once()                  # persist monitor data
    analyzer = Analyzer(setup.engine.database("mydb"))
    report = analyzer.analyze_workload_db(setup.workload_db)
    print(report.render_text())
"""

from repro.clock import Clock, SystemClock, VirtualClock
from repro.config import (
    CostModelConfig,
    DaemonConfig,
    EngineConfig,
    LockConfig,
    MonitorConfig,
    StorageConfig,
)
from repro.core.analyzer import Analyzer, apply_recommendations
from repro.core.autopilot import AutonomousTuner, TuningPolicy
from repro.core.daemon import StorageDaemon
from repro.core.ima import register_ima_tables
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.watchdog import WatchdogMonitor
from repro.core.workload_db import WorkloadDatabase
from repro.engine import Database, EngineInstance, Session
from repro.errors import ReproError
from repro.setups import Setup, daemon_setup, monitoring_setup, original_setup

__version__ = "1.0.0"

__all__ = [
    "Analyzer",
    "AutonomousTuner",
    "Clock",
    "CostModelConfig",
    "DaemonConfig",
    "Database",
    "EngineConfig",
    "EngineInstance",
    "IntegratedMonitor",
    "LockConfig",
    "MonitorConfig",
    "MonitorSensors",
    "ReproError",
    "Session",
    "Setup",
    "StorageConfig",
    "StorageDaemon",
    "SystemClock",
    "TuningPolicy",
    "VirtualClock",
    "WatchdogMonitor",
    "WorkloadDatabase",
    "apply_recommendations",
    "daemon_setup",
    "monitoring_setup",
    "original_setup",
    "register_ima_tables",
    "__version__",
]
