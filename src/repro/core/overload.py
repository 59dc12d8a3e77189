"""Adaptive degradation ladder: overload-resilient monitoring.

Under heavy multi-session traffic the IMA rings flood, the daemon falls
behind, and the choice is between monitoring detail and engine
throughput.  Following the two-phase adaptive-monitoring shape of
Tigris (PAPERS.md), this module keeps cheap always-on counters and
adapts the *detail* per shard along a four-rung ladder::

    DETAILED -> SAMPLED(1/k) -> COUNTS_ONLY -> SHED

- **DETAILED**: everything the paper's monitor records today.
- **SAMPLED**: statements/references as today; one workload record in
  ``k`` is kept with full detail, the rest are counted as sampled out.
- **COUNTS_ONLY**: statement frequency bumps survive; workload records,
  reference logging and plan capture are suppressed (counted).
- **SHED**: the shard records nothing; every statement bumps one shed
  counter.

Every suppressed statement is still *counted*, so the conservation
invariant holds exactly at quiescence on every shard::

    issued == admitted + sampled_out + shed
    admitted == observed (live window rows) + dropped (ring overwrites)

``admitted`` is ``workload.total_appended``, which survives window
clears (``dropped`` does not), so the first identity is the one
:func:`repro.invariants.conservation_violations` enforces bit-exactly.

Pressure model
--------------
:class:`OverloadController` observes, per shard, four signals in
``[0, 1]`` and takes their max:

- **unread loss**: rows that fell off the workload ring before the
  daemon read them (the gap between the persisted high-water mark and
  the oldest live row), normalized by ring capacity.  This is the true
  overload signal — a full ring is *normal* (reads never drain it) and
  raw drop counters fire on every append once the ring wraps.
- **flush backlog**: the daemon's pending-row buffer as a fraction of
  its cap (global; the daemon batches all shards into one buffer).
- **poll latency**: an EWMA of poll durations against a budget.
- **occupancy**: ring fill fraction, weighted weakly
  (``occupancy_weight``) so that a full-but-healthy ring alone can
  never escalate, and never prevents recovery.

Escalation/de-escalation is hysteresis-controlled (``escalate_dwell``
consecutive high observations to degrade one rung, ``recover_dwell``
consecutive low ones to recover one; the dead band between the two
thresholds resets both streaks).  Shards whose daemon poll group is
parked are forced to SHED until the group recovers.  Transitions open
and close per-shard *degraded windows* so the merged IMA view can
annotate which time ranges carry reduced detail.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import faultsim
from repro.clock import Clock
from repro.config import OverloadConfig
from repro.core.monitor import IntegratedMonitor
from repro.core.sharding import monitor_shards
from repro.errors import InjectedFault

#: Ladder levels are plain ints (compared on the per-statement hot
#: path; enum attribute access is measurably slower).
DETAILED = 0
SAMPLED = 1
COUNTS_ONLY = 2
SHED = 3

LEVEL_NAMES = ("DETAILED", "SAMPLED", "COUNTS_ONLY", "SHED")


@dataclass
class DegradedWindow:
    """One contiguous span during which a shard ran below DETAILED."""

    shard_id: int
    started_at: float
    peak_level: int = SAMPLED
    ended_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "peak_level": self.peak_level,
            "peak_level_name": LEVEL_NAMES[self.peak_level],
        }


class _ShardState:
    """Controller-private per-shard ladder state (guarded by the
    controller's lock)."""

    __slots__ = ("level", "escalate_streak", "recover_streak",
                 "pressure", "loss_component", "occupancy",
                 "window")

    def __init__(self) -> None:
        self.level = DETAILED
        self.escalate_streak = 0
        self.recover_streak = 0
        self.pressure = 0.0
        self.loss_component = 0.0
        self.occupancy = 0.0
        self.window: DegradedWindow | None = None


class OverloadController:
    """Hysteresis-controlled degradation ladder over monitor shards.

    The daemon feeds it after every poll (:meth:`note_poll`); tests may
    also call :meth:`observe` directly.  The
    controller pushes the decided level into each shard
    (:meth:`~repro.core.monitor.IntegratedMonitor.set_degradation`)
    where the admission gate applies it; it never touches the hot path
    itself.
    """

    # Observed from the daemon thread, read by health snapshots from
    # any thread: all mutable state below is guarded by _lock.
    def __init__(self, monitor: "IntegratedMonitor | Any",
                 config: OverloadConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or OverloadConfig()
        self.shards: tuple[IntegratedMonitor, ...] = monitor_shards(monitor)
        self.clock: Clock = clock if clock is not None else self.shards[0].clock
        self._lock = threading.Lock()
        self._states = tuple(  # fixed size; per-entry state shared(_lock)
            _ShardState() for _ in self.shards)
        self._latency_ewma_s = 0.0  # staticcheck: shared(_lock)
        self._backlog_fraction = 0.0  # staticcheck: shared(_lock)
        self._parked: frozenset[int] = frozenset()  # staticcheck: shared(_lock)
        self._observations = 0  # staticcheck: shared(_lock)
        self._transitions = 0  # staticcheck: shared(_lock)
        self._windows: list[DegradedWindow] = \
            []  # staticcheck: shared(_lock); bounded(trimmed-to-window-history)
        for shard in self.shards:
            shard.set_degradation(DETAILED, self.config.sample_k)

    # -- daemon feedback ---------------------------------------------------

    def note_poll(self, duration_s: float, pending_rows: int,
                  pending_cap: int,
                  per_shard_loss: Mapping[int, int] | None = None,
                  parked_shards: Iterable[int] = ()) -> None:
        """Fold one daemon poll's signals and run an observation.

        ``per_shard_loss`` maps shard id to workload rows lost *unread*
        since the previous poll; ``parked_shards`` lists shard ids whose
        poll group is currently quarantined (they are forced to SHED).
        """
        cfg = self.config
        with self._lock:
            alpha = cfg.ewma_alpha
            self._latency_ewma_s += alpha * (duration_s - self._latency_ewma_s)
            if pending_cap > 0:
                self._backlog_fraction = min(1.0, pending_rows / pending_cap)
            else:
                self._backlog_fraction = 0.0
            self._parked = frozenset(parked_shards)
            # Loss is a per-poll-window signal: a shard absent from the
            # mapping lost nothing since the last poll, so its component
            # must decay to zero or a single bad poll would pin the
            # shard's pressure at 1.0 forever.
            for shard_id, state in enumerate(self._states):
                lost = per_shard_loss.get(shard_id, 0) \
                    if per_shard_loss else 0
                capacity = self.shards[shard_id].workload.capacity
                state.loss_component = min(1.0, lost / capacity)
        self.observe()

    # -- the control loop --------------------------------------------------

    def observe(self, now: float | None = None) -> None:
        """Recompute per-shard pressure and walk the ladder.

        Runs on the daemon thread (or a test); one rung per
        transition, dwell-gated in both directions.
        """
        if now is None:
            now = self.clock.now()
        flood = False
        try:
            faultsim.fire("monitor.ring_flood")
        except InjectedFault:
            flood = True
        cfg = self.config
        with self._lock:
            self._observations += 1
            backlog = self._backlog_fraction
            latency = 0.0
            if cfg.poll_latency_budget_s > 0:
                latency = min(1.0,
                              self._latency_ewma_s / cfg.poll_latency_budget_s)
            for shard_id, (shard, state) in enumerate(
                    zip(self.shards, self._states)):
                workload = shard.workload
                state.occupancy = len(workload) / workload.capacity
                if flood:
                    pressure = 1.0
                else:
                    pressure = max(state.loss_component, backlog, latency,
                                   cfg.occupancy_weight * state.occupancy)
                state.pressure = pressure
                if shard_id in self._parked:
                    # A parked poll group is not being persisted at all:
                    # shed outright, and start recovery from SHED once
                    # the group half-opens successfully.
                    state.escalate_streak = 0
                    state.recover_streak = 0
                    if state.level != SHED:
                        self._transition(shard_id, state, SHED, now)
                    continue
                if pressure >= cfg.escalate_pressure:
                    state.recover_streak = 0
                    state.escalate_streak += 1
                    if (state.escalate_streak >= cfg.escalate_dwell
                            and state.level < SHED):
                        self._transition(shard_id, state, state.level + 1, now)
                        state.escalate_streak = 0
                elif pressure <= cfg.deescalate_pressure:
                    state.escalate_streak = 0
                    state.recover_streak += 1
                    if (state.recover_streak >= cfg.recover_dwell
                            and state.level > DETAILED):
                        self._transition(shard_id, state, state.level - 1, now)
                        state.recover_streak = 0
                else:
                    # Dead band: transitions need *consecutive*
                    # beyond-threshold observations.
                    state.escalate_streak = 0
                    state.recover_streak = 0

    # staticcheck: guarded-by(_lock)
    def _transition(self, shard_id: int, state: _ShardState,
                    level: int, now: float) -> None:
        """Apply one ladder transition (caller holds the lock)."""
        state.level = level
        self._transitions += 1
        if level > DETAILED:
            if state.window is None:
                state.window = DegradedWindow(shard_id=shard_id,
                                              started_at=now,
                                              peak_level=level)
                self._windows.append(state.window)
                limit = self.config.window_history
                while len(self._windows) > limit:
                    self._windows.pop(0)
            elif level > state.window.peak_level:
                state.window.peak_level = level
        elif state.window is not None:
            state.window.ended_at = now
            state.window = None
        self.shards[shard_id].set_degradation(level, self.config.sample_k)

    # -- introspection -----------------------------------------------------

    def level_of(self, shard_id: int) -> int:
        with self._lock:
            return self._states[shard_id].level

    def levels(self) -> tuple[int, ...]:
        with self._lock:
            return tuple(state.level for state in self._states)

    def degraded_windows(self) -> list[dict[str, Any]]:
        """Closed and still-open degraded windows, oldest first — the
        annotation the merged IMA view attaches to its history."""
        with self._lock:
            return [window.to_dict() for window in self._windows]

    def snapshot(self) -> dict[str, Any]:
        """JSON-shaped controller state for the engine health surface."""
        with self._lock:
            shards = [
                {
                    "shard_id": shard_id,
                    "level": state.level,
                    "level_name": LEVEL_NAMES[state.level],
                    "pressure": round(state.pressure, 6),
                    "loss_component": round(state.loss_component, 6),
                    "occupancy": round(state.occupancy, 6),
                    "escalate_streak": state.escalate_streak,
                    "recover_streak": state.recover_streak,
                    "parked": shard_id in self._parked,
                }
                for shard_id, state in enumerate(self._states)
            ]
            signals = {
                "poll_latency_ewma_s": round(self._latency_ewma_s, 6),
                "backlog_fraction": round(self._backlog_fraction, 6),
                "parked_shards": sorted(self._parked),
            }
            observations = self._observations
            transitions = self._transitions
            windows = [window.to_dict() for window in self._windows]
        return {
            "shards": shards,
            "signals": signals,
            "observations": observations,
            "transitions": transitions,
            "degraded_windows": windows,
            "conservation": conservation_report(self.shards),
        }


def conservation_report(
        monitor: "IntegratedMonitor | Any") -> list[dict[str, int]]:
    """Per-shard conservation ledger (see the module docstring).

    Accepts a monitor (sharded or not) or an already-resolved shard
    tuple, so the controller can report over the shards it holds.
    """
    shards = (monitor if isinstance(monitor, tuple)
              else monitor_shards(monitor))
    report = []
    for shard_id, shard in enumerate(shards):
        issued, sampled_out, shed = shard.degradation_counters()
        workload = shard.workload
        report.append({
            "shard_id": shard_id,
            "issued": issued,
            "admitted": workload.total_appended,
            "observed": len(workload),
            "dropped": workload.dropped,
            "sampled_out": sampled_out,
            "shed": shed,
        })
    return report


__all__ = [
    "COUNTS_ONLY",
    "DETAILED",
    "DegradedWindow",
    "LEVEL_NAMES",
    "OverloadController",
    "SAMPLED",
    "SHED",
    "conservation_report",
]
