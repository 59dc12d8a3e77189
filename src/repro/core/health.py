"""Background workers, their supervision, and the health surface.

The pipeline's three background threads — the storage daemon's poll
loop, the autonomous tuner's cycle loop and the supervisor's check
loop — are each a :class:`PeriodicWorker`, which owns the thread
contract once: ``start`` refuses while a thread lives, ``restart``
supersedes a live or hung one, ``stop`` keeps a hung handle and
raises, failures grow one capped :class:`Backoff`, and each wake-up
stamps a *due time* ``now + interval + backoff``.

:class:`Supervisor` drives a state machine per watched worker::

    RUNNING --(dead or overdue)--> RESTARTING (capped backoff)
    RESTARTING --(restart ok)--> RUNNING
    RESTARTING --(PARK_AFTER_RESTARTS consecutive restarts)--> PARKED
    PARKED --(PARK_COOLDOWN_S elapsed)--> RESTARTING (half-open retry)

A watch is unhealthy when its worker is dead or when
``now > due_at + HEARTBEAT_TIMEOUT_S``.  Judging the due time, not the
age of the last stamp, lets a loop wait out an interval plus backoff
longer than the timeout (the tuner's 300 s cycle) without being
restarted.  A healthy tick resets the restart streak, so a watch parks
only when restarts keep failing.  ``tick()`` is deterministic (tests
drive it on a virtual clock); ``start()`` runs it on the supervisor's
own worker.

:meth:`repro.setups.Setup.health` joins the engine's statistics with
the daemon's, the ladder's and the supervisor's snapshots — a sick
part reports its error string instead of raising — into the JSON of
the ``\\health`` shell command and ``repro chaos --storm
--health-report``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.clock import Clock
from repro.config import SupervisorConfig
from repro.errors import MonitorError, ReproError

#: Watch states (plain strings so snapshots serialize as-is).
RUNNING = "RUNNING"
RESTARTING = "RESTARTING"
PARKED = "PARKED"

#: Seconds ``stop``/``restart`` wait for a worker thread to exit.
JOIN_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class Backoff:
    """Capped exponential delay: ``initial_s · factor^(n-1)`` after the
    n-th consecutive failure, never above ``cap_s``; 0 with none."""

    initial_s: float
    factor: float
    cap_s: float

    def delay(self, failures: int) -> float:
        if failures <= 0:
            return 0.0
        return min(self.cap_s, self.initial_s * self.factor ** (failures - 1))


#: Extra wait after failed tuning cycles, and between supervisor restarts.
RETRY_BACKOFF = Backoff(1.0, 2.0, 60.0)
#: Seconds a watched worker may stay past its due time (its last wake-up
#: plus interval and backoff) before the supervisor restarts it as hung.
HEARTBEAT_TIMEOUT_S = 30.0
#: Consecutive restarts (without a healthy tick in between) before a
#: watch is parked: left alone until ``PARK_COOLDOWN_S`` elapses, then
#: retried half-open.
PARK_AFTER_RESTARTS = 3
#: Seconds a parked watch stays quarantined before one retry.
PARK_COOLDOWN_S = 120.0


@dataclass(frozen=True)
class WorkerStatus:
    """The health prefix every background worker's status starts with.
    ``cycles`` counts successful steps (the daemon's polls, the tuner's
    cycles); ``backoff_s`` is added to the next wait."""

    running: bool
    cycles: int
    failures: int
    consecutive_failures: int
    backoff_s: float
    last_error: str | None
    restarts: int
    last_heartbeat: float | None


class PeriodicWorker:
    """A thread that runs ``step`` every ``interval_s`` plus backoff.
    ``step`` reports its outcome through :meth:`accounting`, so foreground
    calls and the loop share one set of counters."""

    def __init__(self, name: str, interval_s: float,
                 step: Callable[[], object], backoff: Backoff,
                 clock: Clock) -> None:
        self.name = name
        self.interval_s = interval_s
        self.step = step
        self.backoff = backoff
        self.clock = clock
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        # The running thread's own stop event (its generation): set under
        # _lock by restart()/stop(), so a superseded thread never stamps.
        self._stop = threading.Event()
        self.cycles = 0
        self.failures = 0
        self.consecutive_failures = 0
        self.last_error: str | None = None
        self.restarts = 0
        self._last_heartbeat: float | None = None
        self._due_at: float | None = None

    # -- accounting ----------------------------------------------------------

    @contextmanager
    def accounting(self, cycle: bool = True) -> Iterator[None]:
        """Record the enclosed step: a ReproError or OSError is counted,
        grows the backoff and is re-raised; a success resets the backoff
        and, with ``cycle``, counts one cycle."""
        try:
            yield
        except (ReproError, OSError) as error:
            with self._lock:
                self.failures += 1
                self.consecutive_failures += 1
                self.last_error = f"{type(error).__name__}: {error}"
            raise
        with self._lock:
            self.consecutive_failures = 0
            if cycle:
                self.cycles += 1

    @property
    def due_at(self) -> float | None:
        """When the loop promised to wake next (None before a start)."""
        with self._lock:
            return self._due_at

    def status(self) -> WorkerStatus:
        running = self.is_alive()
        with self._lock:
            return WorkerStatus(
                running=running,
                cycles=self.cycles,
                failures=self.failures,
                consecutive_failures=self.consecutive_failures,
                backoff_s=self.backoff.delay(self.consecutive_failures),
                last_error=self.last_error,
                restarts=self.restarts,
                last_heartbeat=self._last_heartbeat,
            )

    # -- the thread ----------------------------------------------------------

    def is_alive(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Run the loop on a background thread (refused while alive)."""
        if self.is_alive():
            raise MonitorError(f"{self.name} is already running")
        stop = threading.Event()
        wait = self._wake(stop)
        thread = threading.Thread(
            target=self._run, args=(stop, wait), name=self.name,
            daemon=True)
        with self._lock:
            self._stop, self._thread = stop, thread
        thread.start()

    def restart(self) -> None:
        """Supersede the thread, live or hung: the handle is dropped
        after a bounded join, so a wedged thread cannot block recovery
        (it exits when it unwedges; owners serialize steps by mutex)."""
        with self._lock:
            self.restarts += 1
            self._stop.set()
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=JOIN_TIMEOUT_S)
        self.start()

    def stop(self) -> None:
        """Stop the thread; a timed-out join keeps the handle — so
        ``start()`` keeps refusing — and raises MonitorError."""
        with self._lock:
            self._stop.set()
            thread = self._thread
        if thread is None:
            return
        thread.join(timeout=JOIN_TIMEOUT_S)
        if thread.is_alive():
            raise MonitorError(
                f"{self.name} thread did not stop within "
                f"{JOIN_TIMEOUT_S:g}s; thread handle kept, restart "
                "refused while it lives")
        with self._lock:
            self._thread = None

    def _wake(self, stop: threading.Event) -> float:
        """Stamp the heartbeat and the next due time; returns the wait."""
        now = self.clock.now()
        with self._lock:
            wait = self.interval_s + self.backoff.delay(self.consecutive_failures)
            if not stop.is_set():  # a superseded thread stamps nothing
                self._last_heartbeat = now
                self._due_at = now + wait
        return wait

    def _run(self, stop: threading.Event, wait: float) -> None:
        while not stop.wait(wait):
            try:
                self.step()
            except (ReproError, OSError):
                # Recorded by the step's accounting(); the next wait
                # adds the grown backoff to the interval.
                pass
            wait = self._wake(stop)


class WorkerOwner:
    """The lifecycle of an object whose background loop is
    ``self.worker`` (the daemon, the tuner and the supervisor); see
    :class:`PeriodicWorker` for the contract."""

    worker: PeriodicWorker

    def start(self) -> None:
        self.worker.start()

    def restart(self) -> None:
        self.worker.restart()

    def is_alive(self) -> bool:
        return self.worker.is_alive()

    def stop(self) -> None:
        self.worker.stop()


@dataclass
class _Watch:
    """Supervisor-private per-watch state (guarded by the supervisor's
    lock; the worker's probes and restart run outside it)."""

    name: str
    worker: PeriodicWorker
    state: str = RUNNING
    restart_streak: int = 0
    restarts: int = 0
    next_restart_at: float = 0.0
    parked_until: float = 0.0
    last_error: str | None = None
    overdue_s: float | None = None


class Supervisor(WorkerOwner):
    """Due-time supervision of the pipeline's workers.  One lock guards
    all supervisor state; restarts run outside it, so a slow restart
    never blocks health reads."""

    def __init__(self, config: SupervisorConfig, clock: Clock) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        # Registered once at setup; never unbounded (one entry per
        # supervised subsystem).
        self._watches: dict[str, _Watch] = \
            {}  # staticcheck: bounded(one-per-subsystem-registered-at-setup)
        self.ticks = 0
        self.worker = PeriodicWorker("repro-supervisor", config.check_interval_s,
                                     self.tick, RETRY_BACKOFF, clock)

    def watch(self, name: str, worker: PeriodicWorker) -> None:
        """Register a worker to supervise (replaces a same-name watch)."""
        with self._lock:
            self._watches[name] = _Watch(name, worker)

    # -- the supervision loop ----------------------------------------------

    def tick(self, now: float | None = None) -> None:
        """Evaluate every watch once; deterministic and test-drivable."""
        if now is None:
            now = self.clock.now()
        with self._lock:
            self.ticks += 1
            watches = list(self._watches.values())
        for watch in watches:
            self._tick_watch(watch, now)

    def _tick_watch(self, watch: _Watch, now: float) -> None:
        worker = watch.worker
        due_at = worker.due_at
        overdue = None if due_at is None else max(0.0, now - due_at)
        healthy = worker.is_alive() and (
            overdue is None or overdue <= HEARTBEAT_TIMEOUT_S)
        with self._lock:
            watch.overdue_s = overdue
            if healthy:
                watch.state = RUNNING
                watch.restart_streak = 0
                watch.parked_until = 0.0
                return
            if watch.state == PARKED and now < watch.parked_until:
                return  # still cooling down; past it, retry half-open
            if watch.state == RESTARTING and now < watch.next_restart_at:
                return
            if watch.restart_streak >= PARK_AFTER_RESTARTS:
                watch.state = PARKED
                watch.parked_until = now + PARK_COOLDOWN_S
                watch.restart_streak = 0
                watch.last_error = (
                    f"parked after {PARK_AFTER_RESTARTS} restarts "
                    "without a healthy tick")
                return
            watch.state = RESTARTING
            watch.restart_streak += 1
            watch.restarts += 1
            watch.next_restart_at = now + RETRY_BACKOFF.delay(
                watch.restart_streak)
            watch.last_error = None
        # The restart itself runs outside the lock: it may join threads.
        try:
            worker.restart()
        except (ReproError, OSError) as error:
            with self._lock:
                watch.last_error = f"{type(error).__name__}: {error}"

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-shaped supervisor state for the engine health surface."""
        running = self.worker.is_alive()
        with self._lock:
            return {
                "ticks": self.ticks,
                "running": running,
                "watches": [
                    {key: value for key, value in vars(watch).items()
                     if key != "worker"}
                    for watch in self._watches.values()],
            }

    def states(self) -> dict[str, str]:
        with self._lock:
            return {name: watch.state
                    for name, watch in self._watches.items()}


__all__ = [
    "JOIN_TIMEOUT_S",
    "PARKED",
    "RESTARTING",
    "RETRY_BACKOFF",
    "RUNNING",
    "Backoff",
    "PeriodicWorker",
    "Supervisor",
    "WorkerOwner",
    "WorkerStatus",
]
