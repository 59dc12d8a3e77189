"""Adaptive degradation ladder: overload-resilient monitoring.

Under heavy multi-session traffic the IMA rings flood, the daemon falls
behind, and the choice is between monitoring detail and engine
throughput.  Following the two-phase adaptive-monitoring shape of
Tigris (PAPERS.md), this module keeps cheap always-on counters and
adapts the monitor's *detail* along a four-rung ladder::

    DETAILED -> SAMPLED(1/k) -> COUNTS_ONLY -> SHED

- **DETAILED**: everything the paper's monitor records today.
- **SAMPLED**: statements/references as today; one workload record in
  ``k`` is kept with full detail, the rest are counted as sampled out.
- **COUNTS_ONLY**: statement frequency bumps survive; workload records,
  reference logging and plan capture are suppressed (counted).
- **SHED**: the monitor records nothing; every statement bumps one shed
  counter.

The level lives once, as ``IntegratedMonitor.degradation_level``,
which the controller moves.  Each statement reads it once, at its
start, and is recorded at that rung throughout.

Every suppressed statement is still *counted*, so the conservation
invariant holds exactly at quiescence::

    issued == admitted + sampled_out + shed
    admitted == observed (live window rows) + dropped (ring overwrites)

``admitted`` is ``workload.total_appended``, which survives window
clears (``dropped`` does not), so the first identity is the one
:func:`repro.invariants.conservation_violations` enforces bit-exactly.

Pressure model
--------------
:class:`OverloadController` observes three signals in ``[0, 1]`` and
takes their max:

- **unread loss**: rows that fell off the workload ring before the
  daemon read them (the gap between the persisted high-water mark and
  the oldest live row), normalized by ring capacity.  This is the true
  overload signal — a full ring is *normal* (reads never drain it) and
  raw drop counters fire on every append once the ring wraps.
- **flush backlog**: the daemon's pending-row buffer as a fraction of
  its cap.
- **poll latency**: an EWMA of poll durations against a budget.

Escalation/de-escalation is hysteresis-controlled (``escalate_dwell``
consecutive high observations to degrade one rung, ``recover_dwell``
consecutive low ones to recover one; the dead band between the two
thresholds resets both streaks).  Transitions open and close *degraded
windows* so the IMA history can be annotated with the time ranges that
carry reduced detail; the newest ``WINDOW_HISTORY`` are kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro import faultsim
from repro.core.monitor import (COUNTS_ONLY, DETAILED, SAMPLED, SHED,
                                IntegratedMonitor)
from repro.errors import InjectedFault

LEVEL_NAMES = ("DETAILED", "SAMPLED", "COUNTS_ONLY", "SHED")

#: Pressure at or above which ``escalate_dwell`` consecutive
#: observations degrade the monitor one rung.
ESCALATE_PRESSURE = 0.75
#: Pressure at or below which ``recover_dwell`` consecutive
#: observations recover one rung.  Pressures between the two
#: thresholds are the hysteresis dead band: they reset both streaks.
DEESCALATE_PRESSURE = 0.35
#: Daemon poll duration treated as pressure 1.0; the EWMA of poll
#: durations is normalized against it.
POLL_LATENCY_BUDGET_S = 5.0
#: Smoothing factor of the poll-latency EWMA.
EWMA_ALPHA = 0.3
#: Degraded-window annotations kept per controller (oldest out).
WINDOW_HISTORY = 64


@dataclass
class DegradedWindow:
    """One contiguous span during which the monitor ran below DETAILED."""

    started_at: float
    peak_level: int = SAMPLED
    ended_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "peak_level": self.peak_level,
            "peak_level_name": LEVEL_NAMES[self.peak_level],
        }


class OverloadController:
    """Hysteresis-controlled degradation ladder over one monitor.

    The daemon feeds it after every poll (:meth:`note_poll`); tests may
    also call :meth:`observe` directly.  Its tunables and clock are the
    monitor's (``monitor.config.overload``, ``monitor.clock``).  The
    level it walks is the monitor's ``degradation_level``, set through
    :meth:`~repro.core.monitor.IntegratedMonitor.set_degradation`; it
    never touches the hot path itself.
    """

    # Observed from the daemon thread, read by health snapshots from
    # any thread: all mutable state below is guarded by _lock, and
    # only the controller moves the monitor's level.
    def __init__(self, monitor: IntegratedMonitor) -> None:
        self.config = monitor.config.overload
        self.monitor = monitor
        self.clock = monitor.clock
        self._lock = threading.Lock()
        self._escalate_streak = 0
        self._recover_streak = 0
        self._pressure = 0.0
        self._loss_component = 0.0
        self._window: DegradedWindow | None = None
        self._latency_ewma_s = 0.0
        self._backlog_fraction = 0.0
        self._observations = 0
        self._transitions = 0
        self._windows: list[DegradedWindow] = []

    # -- daemon feedback ---------------------------------------------------

    def note_poll(self, duration_s: float, pending_rows: int,
                  pending_cap: int, unread_loss: int = 0) -> None:
        """Fold one daemon poll's signals and run an observation.

        ``unread_loss`` counts the workload rows lost *unread* since
        the previous poll.
        """
        with self._lock:
            self._latency_ewma_s += EWMA_ALPHA * (
                duration_s - self._latency_ewma_s)
            if pending_cap > 0:
                self._backlog_fraction = min(1.0, pending_rows / pending_cap)
            else:
                self._backlog_fraction = 0.0
            # Loss is a per-poll-window signal: a poll that lost nothing
            # sets it back to zero, or a single bad poll would pin the
            # pressure at 1.0 forever.
            self._loss_component = min(
                1.0, unread_loss / self.monitor.workload.capacity)
        self.observe()

    # -- the control loop --------------------------------------------------

    def observe(self, now: float | None = None) -> None:
        """Recompute the pressure and walk the ladder.

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
            level = self.monitor.degradation_level
            self._observations += 1
            if flood:
                pressure = 1.0
            else:
                latency = min(1.0, self._latency_ewma_s
                              / POLL_LATENCY_BUDGET_S)
                pressure = max(self._loss_component, self._backlog_fraction,
                               latency)
            self._pressure = pressure
            if pressure >= ESCALATE_PRESSURE:
                self._recover_streak = 0
                self._escalate_streak += 1
                if (self._escalate_streak >= cfg.escalate_dwell
                        and level < SHED):
                    self._transition(level + 1, now)
                    self._escalate_streak = 0
            elif pressure <= DEESCALATE_PRESSURE:
                self._escalate_streak = 0
                self._recover_streak += 1
                if (self._recover_streak >= cfg.recover_dwell
                        and level > DETAILED):
                    self._transition(level - 1, now)
                    self._recover_streak = 0
            else:
                # Dead band: transitions need *consecutive*
                # beyond-threshold observations.
                self._escalate_streak = 0
                self._recover_streak = 0

    def _transition(self, level: int, now: float) -> None:
        """Apply one ladder transition (caller holds the lock)."""
        self._transitions += 1
        window = self._window
        if level > DETAILED:
            if window is None:
                self._window = DegradedWindow(started_at=now,
                                              peak_level=level)
                self._windows.append(self._window)
                while len(self._windows) > WINDOW_HISTORY:
                    self._windows.pop(0)
            elif level > window.peak_level:
                window.peak_level = level
        elif window is not None:
            window.ended_at = now
            self._window = None
        self.monitor.set_degradation(level)

    # -- introspection -----------------------------------------------------

    def level(self) -> int:
        """The ladder level the monitor runs at now."""
        return self.monitor.degradation_level

    def degraded_windows(self) -> list[dict[str, Any]]:
        """Closed and still-open degraded windows, oldest first — the
        annotation the IMA history can carry."""
        with self._lock:
            return [window.to_dict() for window in self._windows]

    def snapshot(self) -> dict[str, Any]:
        """JSON-shaped controller state for the engine health surface."""
        with self._lock:
            level = self.monitor.degradation_level
            snapshot = {
                "level": level,
                "level_name": LEVEL_NAMES[level],
                "pressure": round(self._pressure, 6),
                "loss_component": round(self._loss_component, 6),
                "escalate_streak": self._escalate_streak,
                "recover_streak": self._recover_streak,
                "signals": {
                    "poll_latency_ewma_s": round(self._latency_ewma_s, 6),
                    "backlog_fraction": round(self._backlog_fraction, 6),
                },
                "observations": self._observations,
                "transitions": self._transitions,
                "degraded_windows": [window.to_dict()
                                     for window in self._windows],
            }
        snapshot["conservation"] = conservation_report(self.monitor)
        return snapshot


def conservation_report(monitor: IntegratedMonitor) -> dict[str, int]:
    """The monitor's conservation ledger (see the module docstring)."""
    issued, sampled_out, shed = monitor.degradation_counters()
    workload = monitor.workload
    return {
        "issued": issued,
        "admitted": workload.total_appended,
        "observed": len(workload),
        "dropped": workload.dropped,
        "sampled_out": sampled_out,
        "shed": shed,
    }


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
