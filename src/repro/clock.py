"""Clock abstraction used throughout the engine and monitor.

Two implementations are provided:

* :class:`SystemClock` — wraps :func:`time.monotonic` /
  :func:`time.time`; used by default and by the wall-clock experiments.
* :class:`VirtualClock` — a manually advanced clock; used by tests and
  by simulations (e.g. the lock-diagram workload) that need
  deterministic timestamps.

The engine measures *durations* with :meth:`Clock.monotonic` and stamps
*records* with :meth:`Clock.now` (epoch seconds), mirroring the paper's
split between per-statement wallclock and workload-DB timestamps.

Both clocks route ``now()`` through the :mod:`repro.faultsim`
``clock.now`` failure point, which can inject wall-clock *jumps* (an
NTP step, a VM migration).  ``monotonic()`` is deliberately immune —
that is the property monotonic time guarantees — so jump experiments
expose exactly the code that stamps records with wall-clock time.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro import faultsim


class Clock(ABC):
    """Interface for time sources."""

    @abstractmethod
    def now(self) -> float:
        """Return the current wall-clock time in epoch seconds."""

    @abstractmethod
    def monotonic(self) -> float:
        """Return a monotonically increasing reading in seconds."""

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds``; virtual clocks advance instead."""
        time.sleep(seconds)


class SystemClock(Clock):
    """Real time, backed by the :mod:`time` module."""

    def now(self) -> float:
        return time.time() + faultsim.clock_offset(self)

    # The clock itself, not a method around it: a statement's wallclock
    # reads it twice, with no frame of ours in between.
    monotonic = staticmethod(time.monotonic)  # type: ignore[assignment]


class VirtualClock(Clock):
    """Deterministic clock advanced explicitly by the caller.

    ``now`` and ``monotonic`` share a single reading so tests can reason
    about both durations and timestamps.  ``sleep`` advances the clock
    instead of blocking, which lets daemon/retention tests run instantly.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._time = float(start)

    def now(self) -> float:
        return self._time + faultsim.clock_offset(self)

    def monotonic(self) -> float:
        return self._time

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot move a clock backwards: {seconds}")
        self._time += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)
