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

    heap_fill_factor: float = 0.9
    """Fraction of a heap main page filled before spilling to overflow."""

    read_latency_s: float = 0.0
    """Optional simulated latency charged per physical page read."""

    write_latency_s: float = 0.0
    """Optional simulated latency charged per physical page write."""


@dataclass(frozen=True)
class CostModelConfig:
    """Weights of the optimizer cost model (requirement ii of the paper:
    all what-if decisions use the engine's own model)."""

    io_page_cost: float = 4.0
    """Cost units charged per page read from disk."""

    cpu_tuple_cost: float = 0.01
    """Cost units charged per tuple processed by an operator."""

    cpu_operator_cost: float = 0.0025
    """Cost units charged per predicate/expression evaluation."""

    cpu_index_tuple_cost: float = 0.005
    """Cost units charged per index entry touched."""

    sort_page_cost: float = 2.0
    """Cost units charged per page of an external sort pass."""

    default_selectivity_eq: float = 0.005
    """Equality selectivity assumed when no histogram exists."""

    default_selectivity_range: float = 0.33
    """Range selectivity assumed when no histogram exists."""


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
    overload`): how shard pressure is measured and when a shard's
    monitoring detail escalates or de-escalates."""

    enabled: bool = True
    """Whether setups attach an :class:`~repro.core.overload.
    OverloadController`.  The admission gate in the monitor is always
    compiled in (its counters feed the health surface either way);
    without a controller every shard simply stays DETAILED."""

    sample_k: int = 8
    """In the SAMPLED state one workload record in ``sample_k`` is
    admitted with full detail; the rest are counted as sampled out."""

    escalate_pressure: float = 0.75
    """A shard whose pressure reaches this level for
    ``escalate_dwell`` consecutive observations degrades one rung."""

    deescalate_pressure: float = 0.35
    """A shard whose pressure stays at or below this level for
    ``recover_dwell`` consecutive observations recovers one rung.
    Pressures between the two thresholds are the hysteresis dead band:
    they reset both streaks, so each transition requires *consecutive*
    observations beyond its threshold."""

    escalate_dwell: int = 2
    """Consecutive high-pressure observations before degrading."""

    recover_dwell: int = 3
    """Consecutive low-pressure observations before recovering (higher
    than ``escalate_dwell`` so a recovering shard does not flap)."""

    poll_latency_budget_s: float = 5.0
    """Daemon poll duration treated as pressure 1.0; the EWMA of poll
    durations is normalized against this budget."""

    ewma_alpha: float = 0.3
    """Smoothing factor of the poll-latency EWMA."""

    occupancy_weight: float = 0.3
    """Weight of raw ring occupancy in the pressure signal.  Rings are
    never drained by reads, so a full ring is normal under healthy
    traffic — occupancy alone must not cross ``escalate_pressure``
    (and at the default weight a full ring contributes 0.3, below the
    de-escalation threshold, so recovery is always reachable)."""

    window_history: int = 64
    """Degraded-window annotations kept per controller (oldest out)."""


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the integrated monitor (section IV-A of the paper)."""

    statement_buffer_size: int = 1000
    """Ring-buffer capacity for distinct statements (paper default)."""

    workload_buffer_size: int = 4000
    """Ring-buffer capacity for workload (execution history) entries."""

    reference_buffer_size: int = 8000
    """Ring-buffer capacity for statement→object reference entries."""

    statistics_buffer_size: int = 2000
    """Ring-buffer capacity for system-wide statistics samples."""

    plan_capture_min_cost: float = 100.0
    """Capture the optimizer's plan text for statements whose estimated
    cost reaches this value (AWR-style top-query plans); 0 disables."""

    plan_buffer_size: int = 200
    """Ring-buffer capacity for captured plans."""

    max_statement_text: int = 1024
    """Captured query texts are truncated to this many characters (the
    statement hash still covers the full text)."""

    statement_cache_enabled: bool = True
    """Cache per-statement-hash reference extraction so repeated texts
    skip re-logging catalog references (the caching strategy the paper's
    section V-A proposes to reduce the 1m-test overhead)."""

    shard_count: int = 1
    """Number of monitor shards.  1 (the default) keeps the paper's
    single :class:`~repro.core.monitor.IntegratedMonitor`; above 1 the
    monitor is a :class:`~repro.core.sharding.ShardedMonitor` — sessions
    hash to per-shard ring buffers with independent locks, merged into
    one IMA view.  Capped at
    :data:`~repro.core.sharding.SHARD_STRIDE` (64)."""

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

    backoff_initial_s: float = 1.0
    """Extra delay before the retry after the first consecutive poll
    failure; doubles (``backoff_factor``) on each further failure."""

    backoff_factor: float = 2.0
    """Multiplier applied to the backoff delay per consecutive failure."""

    backoff_max_s: float = 300.0
    """Cap on the backoff delay so a long outage still retries."""

    max_pending_rows: int = 100_000
    """Per-table cap on rows buffered while the workload DB is down;
    beyond it the oldest buffered rows are dropped (and counted)."""

    stop_join_timeout_s: float = 5.0
    """Seconds ``stop()`` waits for the poll thread before reporting a
    hung daemon (the thread handle is kept so it cannot be leaked)."""

    poll_workers: int = 1
    """Worker threads a poll fans monitor shards across (each worker
    reads its shards over its own session).  1 polls inline; the whole
    poll is still serialized under the daemon's poll mutex, so workers
    parallelize shard reads *within* one poll, never across polls."""

    worker_heartbeat_timeout_s: float = 10.0
    """Seconds a poll worker may run without stamping its heartbeat
    before the collecting poll declares it hung, abandons its thread
    and fails the round (the worker's session is replaced, never closed
    under the zombie, and the incident is surfaced in the daemon
    status)."""

    worker_park_after: int = 3
    """Consecutive failed rounds for one shard group before that group
    is parked — skipped by subsequent polls so the remaining groups
    keep flowing — until ``worker_park_cooldown_s`` elapses."""

    worker_park_cooldown_s: float = 60.0
    """Seconds a parked shard group stays quarantined before the next
    poll half-opens it (retries it once; success unparks, failure
    re-parks for another cooldown)."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the thread supervisor (:mod:`repro.core.health`)
    that watches the storage daemon and the tuner thread."""

    check_interval_s: float = 5.0
    """Seconds between supervisor ticks when it runs its own thread."""

    heartbeat_timeout_s: float = 30.0
    """Seconds a watched thread may go without stamping its heartbeat
    before the supervisor declares it hung and restarts it."""

    restart_backoff_initial_s: float = 1.0
    """Delay before the first restart of a failed watch; doubles
    (``restart_backoff_factor``) on each consecutive restart."""

    restart_backoff_factor: float = 2.0
    """Multiplier applied to the restart delay per consecutive restart."""

    restart_backoff_max_s: float = 60.0
    """Cap on the restart backoff delay."""

    park_after_restarts: int = 3
    """Consecutive restarts (without an intervening healthy tick)
    before a watch is parked — left alone until ``park_cooldown_s``
    elapses, then retried half-open (the PR-5 circuit-breaker shape)."""

    park_cooldown_s: float = 120.0
    """Seconds a parked watch stays quarantined before one retry."""

    stop_join_timeout_s: float = 5.0
    """Seconds ``stop()`` waits for the supervisor thread itself."""


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

    faults: tuple[str, ...] = ()
    """Fault-injection specs armed when the engine is constructed, e.g.
    ``("disk.read:every-n=10", "session.execute:p=0.01,seed=7")``; see
    :mod:`repro.faultsim`.  Empty (the default) injects nothing."""
