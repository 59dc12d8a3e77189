"""Thread supervision and the engine-wide health surface.

The monitoring pipeline runs long-lived background threads (the
storage daemon's poll loop, the tuner loop); this module supervises
them and aggregates everything observable about the pipeline into one
snapshot.

:class:`Supervisor` watches registered threads (the storage daemon's
poll loop, the autonomous tuner) through three probes — liveness,
heartbeat age, restart callable — and drives a small state machine per
watch::

    RUNNING --(dead or heartbeat stale)--> RESTARTING (capped backoff)
    RESTARTING --(restart ok)--> RUNNING
    RESTARTING --(park_after_restarts consecutive restarts)--> PARKED
    PARKED --(park_cooldown_s elapsed)--> RESTARTING (half-open retry)

A healthy tick (alive + fresh heartbeat) resets the restart streak, so
a watch only parks when restarts repeatedly fail to produce a healthy
thread — the PR-5 circuit-breaker shape.  ``tick()`` is public and
deterministic (tests drive it with a virtual clock); ``start()`` runs
it on its own thread for real deployments.

The engine half lives in :meth:`repro.engine.engine.EngineInstance.
health`: subsystems register named snapshot providers and ``health()``
assembles them — never raising, a sick provider reports its error
string instead of breaking the surface — into the JSON document the
``\\health`` shell command and ``repro chaos --storm --health-report``
emit.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.clock import Clock
from repro.config import SupervisorConfig
from repro.errors import MonitorError, ReproError

#: Watch states (plain strings so snapshots serialize as-is).
RUNNING = "RUNNING"
RESTARTING = "RESTARTING"
PARKED = "PARKED"


class _Watch:
    """Supervisor-private per-watch state (guarded by the supervisor's
    lock; the probe/restart callables run outside it)."""

    __slots__ = ("name", "is_alive", "heartbeat", "restart", "state",
                 "restart_streak", "restarts", "next_restart_at",
                 "parked_until", "last_error", "last_heartbeat_age_s")

    def __init__(self, name: str, is_alive: Callable[[], bool],
                 heartbeat: Callable[[], float | None],
                 restart: Callable[[], None]) -> None:
        self.name = name
        self.is_alive = is_alive
        self.heartbeat = heartbeat
        self.restart = restart
        self.state = RUNNING
        self.restart_streak = 0
        self.restarts = 0
        self.next_restart_at = 0.0
        self.parked_until = 0.0
        self.last_error: str | None = None
        self.last_heartbeat_age_s: float | None = None


class Supervisor:
    """Heartbeat supervision for the monitoring pipeline's threads.

    Watches are registered once at setup time (:meth:`watch`) and the
    probe callables are expected to be cheap and thread-safe (the
    daemon's and tuner's ``is_alive``/``last_heartbeat`` read a counter
    under their own small lock).  ``tick(now)`` evaluates every watch;
    all supervisor state is guarded by one lock, and the restart
    callables run *outside* it so a slow restart never blocks health
    reads.
    """

    def __init__(self, config: SupervisorConfig, clock: Clock) -> None:
        self.config = config
        self.clock = clock
        self._lock = threading.Lock()
        # Registered once at setup; never unbounded (one entry per
        # supervised subsystem).
        self._watches: dict[str, _Watch] = \
            {}  # staticcheck: shared(_lock); bounded(one-per-subsystem-registered-at-setup)
        self.ticks = 0  # staticcheck: shared(_lock)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def watch(self, name: str, is_alive: Callable[[], bool],
              heartbeat: Callable[[], float | None],
              restart: Callable[[], None]) -> None:
        """Register a thread to supervise (replaces a same-name watch)."""
        with self._lock:
            self._watches[name] = _Watch(name, is_alive, heartbeat, restart)

    # -- the supervision loop ----------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """Evaluate every watch once; deterministic and test-drivable."""
        if now is None:
            now = self.clock.now()
        with self._lock:
            self.ticks += 1
            watches = list(self._watches.values())  # staticcheck: allocfree(one-per-subsystem)
        for watch in watches:
            self._tick_watch(watch, now)

    def _tick_watch(self, watch: _Watch, now: float) -> None:
        cfg = self.config
        alive = self._probe_alive(watch)
        stamp = self._probe_heartbeat(watch)
        age = None if stamp is None else max(0.0, now - stamp)
        healthy = alive and (age is None
                             or age <= cfg.heartbeat_timeout_s)
        with self._lock:
            watch.last_heartbeat_age_s = age
            if healthy:
                watch.state = RUNNING
                watch.restart_streak = 0
                watch.parked_until = 0.0
                return
            if watch.state == PARKED:
                if now < watch.parked_until:
                    return  # still cooling down
                # Half-open: fall through to one more restart attempt.
            if watch.state != RESTARTING or now >= watch.next_restart_at:
                due = True
            else:
                due = False
            if not due:
                return
            if watch.restart_streak >= cfg.park_after_restarts:
                watch.state = PARKED
                watch.parked_until = now + cfg.park_cooldown_s
                watch.restart_streak = 0
                watch.last_error = (
                    f"parked after {cfg.park_after_restarts} restarts "
                    "without a healthy tick")
                return
            watch.state = RESTARTING
            watch.restart_streak += 1
            watch.restarts += 1
            backoff = min(
                cfg.restart_backoff_max_s,
                cfg.restart_backoff_initial_s
                * cfg.restart_backoff_factor ** (watch.restart_streak - 1))
            watch.next_restart_at = now + backoff
        # The restart itself runs outside the lock: it may join threads.
        try:
            watch.restart()
        except (ReproError, OSError) as error:
            with self._lock:
                watch.last_error = f"{type(error).__name__}: {error}"
        else:
            with self._lock:
                watch.last_error = None

    def _probe_alive(self, watch: _Watch) -> bool:
        try:
            return bool(watch.is_alive())
        except (ReproError, OSError):
            return False

    def _probe_heartbeat(self, watch: _Watch) -> float | None:
        try:
            return watch.heartbeat()
        except (ReproError, OSError):
            return None

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-shaped supervisor state for the engine health surface."""
        with self._lock:
            return {
                "ticks": self.ticks,
                "running": self._thread is not None
                           and self._thread.is_alive(),
                "watches": [
                    {
                        "name": watch.name,
                        "state": watch.state,
                        "restarts": watch.restarts,
                        "restart_streak": watch.restart_streak,
                        "parked_until": watch.parked_until or None,
                        "heartbeat_age_s": watch.last_heartbeat_age_s,
                        "last_error": watch.last_error,
                    }
                    for watch in self._watches.values()
                ],
            }

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: watch.state
                    for name, watch in self._watches.items()}

    # -- background thread -------------------------------------------------

    def start(self) -> None:
        """Run :meth:`tick` periodically on a background thread."""
        if self._thread is not None and self._thread.is_alive():
            raise MonitorError("supervisor is already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the supervisor thread (same hung-thread contract as the
        daemon: a timed-out join keeps the handle and raises)."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.config.stop_join_timeout_s)
            if thread.is_alive():
                raise MonitorError(
                    "supervisor thread did not stop within "
                    f"{self.config.stop_join_timeout_s:g}s; thread handle "
                    "kept, restart refused while it lives")
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.check_interval_s):
            self.tick()


__all__ = [
    "PARKED",
    "RESTARTING",
    "RUNNING",
    "Supervisor",
]
