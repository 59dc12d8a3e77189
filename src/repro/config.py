"""Configuration objects for the engine and the monitoring subsystem.

All tunables live here so that experiments can express their setups as
plain dataclass instances.  The defaults mirror the paper where it gives
concrete values (1000-statement ring buffers, 30 s daemon interval,
7-day workload-DB retention) and otherwise use values appropriate for a
laptop-scale simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StorageConfig:
    """Tunables for the simulated storage engine."""

    page_size: int = 4096
    """Bytes per page; rows are packed into slotted pages of this size."""

    buffer_pool_pages: int = 256
    """Number of pages the LRU buffer cache can hold."""


@dataclass(frozen=True)
class CostModelConfig:
    """Weights of the optimizer cost model (requirement ii of the paper:
    all what-if decisions use the engine's own model)."""

    io_page_cost: float = 4.0
    """Cost units charged per page read from disk."""


@dataclass(frozen=True)
class LockConfig:
    """Lock manager tunables."""

    wait_timeout_s: float = 10.0
    """Seconds a lock request may wait before raising LockTimeoutError."""

    deadlock_check_interval_s: float = 0.05
    """How often waiting requests re-run deadlock detection."""


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

    plan_capture_min_cost: float = 100.0
    """Capture the optimizer's plan text for statements whose estimated
    cost reaches this value (AWR-style top-query plans); 0 disables."""

    plan_buffer_size: int = 200
    """Ring-buffer capacity for captured plans."""

    max_statement_text: int = 1024
    """Captured query texts are truncated to this many characters (the
    statement hash still covers the full text)."""

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

    max_pending_rows: int = 100_000
    """Per-table cap on rows buffered while the workload DB is down;
    beyond it the oldest buffered rows are dropped (and counted)."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the thread supervisor (:mod:`repro.core.health`)
    that watches the storage daemon and the tuner thread."""

    check_interval_s: float = 5.0
    """Seconds between supervisor ticks when it runs its own thread."""


@dataclass(frozen=True)
class EngineConfig:
    """Top-level configuration for one engine instance."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    cost_model: CostModelConfig = field(default_factory=CostModelConfig)
    locks: LockConfig = field(default_factory=LockConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    daemon: DaemonConfig = field(default_factory=DaemonConfig)
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    join_dp_threshold: int = 6
    """Use dynamic-programming join enumeration up to this many inputs;
    fall back to a greedy heuristic beyond it."""

    plan_cache_size: int = 256
    """Per-session cache of prepared SELECTs keyed by statement shape
    (the text with its literals blanked; literal values are bound at
    execute), so the paper's 50k distinct texts plan once.  The same
    budget holds the exact-text entries that keep the repeated 1m
    statement at one lookup.  0 disables plan caching."""
