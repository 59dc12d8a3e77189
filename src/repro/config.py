"""Configuration objects for the monitoring subsystem.

A value is settable here only if some experiment, benchmark or command
line flag runs it at something other than its default: the ring sizes,
the degradation ladder's sampling and dwell, and the daemon's interval,
flush cadence and retention.  Every other setting is a module constant
next to the code that reads it (``PAGE_SIZE`` in
:mod:`repro.storage.disk`, ``PLAN_CACHE_SIZE`` in
:mod:`repro.engine.session`, ...); tests that need another value patch
the constant.  The defaults mirror the paper where it gives concrete
values (1000-statement ring buffers, 30 s daemon interval, 7-day
workload-DB retention) and otherwise use values appropriate for a
laptop-scale simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class OverloadConfig:
    """Tunables of the adaptive degradation ladder (:mod:`repro.core.
    overload`): how the monitor's pressure is measured and when its
    detail escalates or de-escalates."""

    sample_k: int = 8
    """In the SAMPLED state one workload record in ``sample_k`` is
    admitted with full detail; the rest are counted as sampled out
    (values below 1 act as 1)."""

    escalate_dwell: int = 2
    """Consecutive high-pressure observations before degrading."""

    recover_dwell: int = 3
    """Consecutive low-pressure observations before recovering (higher
    than ``escalate_dwell`` so a recovering monitor does not flap)."""


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the integrated monitor (section IV-A of the paper)."""

    statement_buffer_size: int = 1000
    """Ring-buffer capacity for distinct statements (paper default)."""

    workload_buffer_size: int = 4000
    """Ring-buffer capacity for workload (execution history) entries."""

    overload: OverloadConfig = field(default_factory=OverloadConfig)
    """Degradation-ladder tunables (see :class:`OverloadConfig`)."""


@dataclass(frozen=True)
class DaemonConfig:
    """Tunables of the storage daemon (section IV-B of the paper)."""

    poll_interval_s: float = 30.0
    """Seconds between IMA polls (paper default: 30 s)."""

    flush_every_polls: int = 4
    """Polls buffered in memory before appending to the workload DB,
    modelling the paper's 'disk accesses every few minutes'."""

    retention_s: float = 7 * 24 * 3600.0
    """Seconds of history kept in the workload DB (paper: seven days)."""


@dataclass(frozen=True)
class EngineConfig:
    """Top-level configuration for one engine instance."""

    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    daemon: DaemonConfig = field(default_factory=DaemonConfig)
