"""Analyzer configuration: every scope list is stated here, once.

Path options are :mod:`fnmatch` patterns matched against the analyzed
file's POSIX path (``*`` crosses directory separators), so defaults
like ``*repro/clock.py`` work whether the analyzer is given
``src/repro`` or an absolute path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path


@dataclass(frozen=True)
class StaticcheckConfig:
    """Tunables of the project lint.  The defaults are what the lint
    gate and ``repro lint`` run with; tests over fixture files
    construct their own scope."""

    clock_allowed_paths: tuple[str, ...] = ("*repro/clock.py",)
    """Modules allowed to call wall-clock primitives directly (the
    single time source the CLK rules protect)."""

    critical_except_paths: tuple[str, ...] = (
        "*repro/core/daemon.py",
        "*repro/core/watchdog.py",
        "*repro/core/sensors.py",
        "*repro/core/monitor.py",
        "*repro/core/autopilot.py",
        "*repro/core/tuning_journal.py",
        "*repro/core/health.py",
        "*repro/core/overload.py",
        "*repro/core/analyzer/workload_view.py",
        "*repro/core/analyzer/index_advisor.py",
        "*repro/core/analyzer/analyzer.py",
        "*repro/sql/lexer.py",
    )
    """Modules where a swallowed broad ``except`` hides monitor data
    loss (EXC002)."""

    blocking_call_patterns: tuple[str, ...] = (
        "time.sleep",
        "socket.*",
        "subprocess.*",
        "select.select",
        "open",
        "io.open",
        "*.Clock.sleep",
        "*.SystemClock.sleep",
        "*.VirtualClock.sleep",
        "*.Session.execute",
        "*.EngineInstance.connect",
        "*.DiskManager.read",
        "*.DiskManager.write",
        "*.Thread.join",
        "threading.Thread.join",
    )
    """Resolved call targets considered blocking for LCK004 (fnmatch
    patterns over fully qualified names).  ``queue.Queue.get`` and
    ``threading.Event.wait`` without a timeout are blocking too but are
    recognised structurally, not via this list; ``Condition.wait`` is
    exempt because it releases the lock it waits on."""

    growth_scope_paths: tuple[str, ...] = (
        "*repro/core/ring_buffer.py",
        "*repro/core/monitor.py",
        "*repro/core/sensors.py",
        "*repro/core/daemon.py",
        "*repro/core/watchdog.py",
        "*repro/core/autopilot.py",
        "*repro/core/tuning_journal.py",
        "*repro/core/overload.py",
        "*repro/core/health.py",
        "*repro/engine/locks.py",
        "*repro/storage/buffer_pool.py",
        "*repro/core/analyzer/workload_view.py",
        "*repro/core/analyzer/index_advisor.py",
        "*repro/core/analyzer/analyzer.py",
        "*repro/sql/lexer.py",
    )
    """Modules whose classes must keep every container bounded (GRW001
    scope) — the monitor/sensor path, where the paper promises a fixed
    memory footprint no matter how long the DBMS runs."""

    hotpath_scope_paths: tuple[str, ...] = (
        "*repro/core/sensors.py",
        "*repro/core/monitor.py",
        "*repro/core/ring_buffer.py",
        "*repro/core/daemon.py",
        "*repro/engine/locks.py",
        "*repro/storage/record.py",
    )
    """Modules where the PRF rules report findings — the sensor /
    ring-buffer / daemon-flush / lock-manager hot path whose per-call
    constant sets the figure-4 monitoring overhead.  Hot-path
    *propagation* is unrestricted (a hot root may call anywhere); only
    reporting is scoped, so adopting the rules module-by-module does
    not require the whole tree to be clean at once."""

    hotpath_wallclock_patterns: tuple[str, ...] = (
        "time.time",
        "clock.now",
        "*.clock.now",
        "*.Clock.now",
        "*.SystemClock.now",
        "*.VirtualClock.now",
    )
    """Resolved call targets that read the wall clock (PRF004, fnmatch
    over fully qualified names).  Duration probes
    (``time.perf_counter``) are deliberately absent: sensors time
    themselves with the monotonic counter, and PRF004 only polices
    per-row *timestamp* reads, which batch or defer."""

    hotpath_guard_names: tuple[str, ...] = (
        "debug",
        "verbose",
        "enabled",
        "level",
        "isEnabledFor",
        "trace_enabled",
    )
    """Identifier fragments that mark an ``if`` test as a log-level /
    debug guard: formatting work under such a guard is exempt from
    PRF003 (the guard keeps it off the production hot path)."""

    def path_matches(self, path: str, patterns: tuple[str, ...]) -> bool:
        posix = Path(path).as_posix()
        return any(fnmatch(posix, pattern) for pattern in patterns)
