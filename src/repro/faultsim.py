"""Deterministic fault injection for the monitoring pipeline.

The paper's contract for the storage daemon is "always on and never in
the way": a failed poll must not lose or duplicate history, and the
monitor must degrade gracefully rather than hurt the engine.  Proving
that needs failures on demand.  This module provides *named failure
points* wired into the pipeline's seams:

========================  ====================================================
``disk.read``             simulated-disk page read (`storage/disk.py`)
``disk.write``            simulated-disk page write (`storage/disk.py`)
``session.execute``       SQL statement execution (`engine/session.py`)
``clock.now``             wall-clock reads — jump injection (`clock.py`)
``workload_db.append``    workload-DB batch append (`core/workload_db.py`)
``workload_db.purge``     workload-DB retention purge (`core/workload_db.py`)
``ddl.apply``             autonomous DDL implementation
                          (`core/analyzer/recommendations.py`)
``analyzer.scan``         analyzer workload scan (`core/analyzer/analyzer.py`)
``journal.write``         tuning-journal append (`core/tuning_journal.py`)
``monitor.ring_flood``    overload-controller pressure override — an
                          armed trigger forces the monitor's pressure
                          to 1.0 for that observation
                          (`core/overload.py`)
========================  ====================================================

A point is *armed* with a trigger mode — ``once``, ``every-n``,
``for-duration`` or seeded ``probability`` — plus an action: raise the
seam's natural error (default), inject a latency spike
(``latency_s``), or jump the wall clock (``jump_s``, meaningful for
``clock.now`` only).  Every evaluation and trigger is counted and the
counters stay queryable after disarming (``stats()``, ``\\fault
status`` in the shell, ``--fault`` on the CLI).

Unarmed, the seams cost one module call plus one attribute read
(``_active`` fast path), so the hooks can stay compiled in — the same
design argument the paper makes for its sensors.

Determinism: ``once``/``every-n`` count evaluations, ``for-duration``
uses the caller's :class:`~repro.clock.Clock` (virtual clocks make the
window exact), and ``probability`` draws from a ``random.Random``
seeded at arm time, so a scenario replays identically.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import FaultError, InjectedFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clock import Clock

FAIL_POINTS = (
    "disk.read",
    "disk.write",
    "session.execute",
    "clock.now",
    "workload_db.append",
    "workload_db.purge",
    "ddl.apply",
    "analyzer.scan",
    "journal.write",
    "monitor.ring_flood",
)

MODES = ("once", "every-n", "for-duration", "probability")


@dataclass(frozen=True)
class FaultStats:
    """Queryable per-point counters (survive disarm/re-arm)."""

    point: str
    armed: str | None
    """Description of the current arming, or None when disarmed."""
    evaluations: int
    """How many times the seam asked "should I fail?"."""
    triggers: int
    """How many evaluations answered "yes"."""
    errors_raised: int
    latency_injected_s: float
    jumps_injected_s: float


class _Spec:
    """One armed failure point (mutable trigger state)."""

    def __init__(self, point: str, mode: str, *, n: int, duration_s: float,
                 probability: float, seed: int, latency_s: float,
                 jump_s: float, after: int, clock: "Clock | None",
                 on_fire: Callable[[str], None] | None) -> None:
        self.point = point
        self.mode = mode
        self.n = n
        self.duration_s = duration_s
        self.probability = probability
        self.latency_s = latency_s
        self.jump_s = jump_s
        self.after = after
        self.clock = clock
        self.on_fire = on_fire
        self.rng = random.Random(seed)
        self.calls = 0
        self.armed_at: float | None = (
            clock.monotonic() if clock is not None else None)

    def describe(self) -> str:
        parts = [self.mode]
        if self.mode == "every-n":
            parts.append(f"n={self.n}")
        elif self.mode == "for-duration":
            parts.append(f"duration={self.duration_s:g}s")
        elif self.mode == "probability":
            parts.append(f"p={self.probability:g}")
        if self.after:
            parts.append(f"after={self.after}")
        if self.latency_s:
            parts.append(f"latency={self.latency_s:g}s")
        if self.jump_s:
            parts.append(f"jump={self.jump_s:g}s")
        return ",".join(parts)


class _Counters:
    """Mutable counter cell behind :class:`FaultStats`."""

    __slots__ = ("evaluations", "triggers", "errors", "latency_s", "jumps_s")

    def __init__(self) -> None:
        self.evaluations = 0
        self.triggers = 0
        self.errors = 0
        self.latency_s = 0.0
        self.jumps_s = 0.0


class FaultInjector:
    """Holds armed failure points and evaluates them at the seams.

    One process-global instance (:func:`get_injector`) backs the wired
    seams; independent instances can be constructed for unit tests.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # Key space bounded by FAIL_POINTS (arm() validates names).
        self._points: dict[str, _Spec] = {}
        self._counters: dict[str, _Counters] = {}
        self._clock_offset = 0.0
        # Fast-path flag read without the lock by fire()/clock_offset();
        # a torn read only delays (or wastes) one evaluation.
        self._active = False

    # -- arming ------------------------------------------------------------

    def arm(self, point: str, mode: str = "once", *, n: int = 1,
            duration_s: float = 0.0, probability: float = 0.0,
            seed: int = 0, latency_s: float = 0.0, jump_s: float = 0.0,
            after: int = 0, clock: "Clock | None" = None,
            on_fire: Callable[[str], None] | None = None) -> None:
        """Arm ``point``; replaces any previous arming of that point.

        ``after`` skips the first ``after`` evaluations regardless of
        mode (e.g. "fail the second append").  ``on_fire`` is a
        test-only hook invoked on every trigger *instead of* raising —
        it runs outside the injector lock so it may block on events.
        """
        if point not in FAIL_POINTS:
            raise FaultError(
                f"unknown failure point {point!r}; known points: "
                f"{', '.join(FAIL_POINTS)}")
        if mode not in MODES:
            raise FaultError(
                f"unknown fault mode {mode!r}; known modes: "
                f"{', '.join(MODES)}")
        if mode == "every-n" and n < 1:
            raise FaultError(f"every-n requires n >= 1, got {n}")
        if mode == "for-duration":
            if duration_s <= 0:
                raise FaultError("for-duration requires duration_s > 0")
            if clock is None:
                raise FaultError("for-duration requires a clock to "
                                 "measure the window against")
        if mode == "probability" and not 0.0 < probability <= 1.0:
            raise FaultError(
                f"probability must be in (0, 1], got {probability}")
        spec = _Spec(point, mode, n=n, duration_s=duration_s,
                     probability=probability, seed=seed,
                     latency_s=latency_s, jump_s=jump_s, after=after,
                     clock=clock, on_fire=on_fire)
        with self._lock:
            self._points[point] = spec
            self._counters.setdefault(point, _Counters())
            self._refresh_active()

    def disarm(self, point: str) -> None:
        """Disarm ``point``; counters are kept, clock offset persists."""
        with self._lock:
            self._points.pop(point, None)
            self._refresh_active()

    def reset(self) -> None:
        """Disarm everything, zero the clock offset and all counters."""
        with self._lock:
            self._points.clear()
            self._counters.clear()
            self._clock_offset = 0.0
            self._refresh_active()

    def _refresh_active(self) -> None:
        self._active = bool(self._points) or self._clock_offset != 0.0

    # -- introspection -----------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    def armed_points(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._points))

    def stats(self, point: str | None = None) -> tuple[FaultStats, ...]:
        """Counters for ``point`` (or every point ever armed)."""
        with self._lock:
            names = ([point] if point is not None
                     else sorted(self._counters))
            out = []
            for name in names:
                cell = self._counters.get(name, _Counters())
                spec = self._points.get(name)
                out.append(FaultStats(
                    point=name,
                    armed=spec.describe() if spec is not None else None,
                    evaluations=cell.evaluations,
                    triggers=cell.triggers,
                    errors_raised=cell.errors,
                    latency_injected_s=cell.latency_s,
                    jumps_injected_s=cell.jumps_s,
                ))
            return tuple(out)

    # -- evaluation at the seams -------------------------------------------

    def fire(self, point: str, error: type[Exception] = InjectedFault,
             clock: "Clock | None" = None) -> None:
        """Evaluate ``point``: no-op, latency spike, or raised ``error``.

        Called by the wired seams on every operation; the unarmed fast
        path is a single attribute read.
        """
        if not self._active:
            return
        trigger_no = 0
        with self._lock:
            spec = self._points.get(point)
            if spec is None or not self._evaluate(spec, clock):
                return
            cell = self._counters[point]
            latency = spec.latency_s
            callback = spec.on_fire
            if callback is not None:
                pass  # the hook replaces the error action
            elif latency > 0:
                cell.latency_s += latency
            else:
                cell.errors += 1
                trigger_no = cell.triggers
        # Act outside the lock: callbacks may block on events and the
        # latency sleep must never stall other seams (LCK004 discipline).
        if callback is not None:
            callback(point)
            return
        if latency > 0:
            sleeper = clock if clock is not None else spec.clock
            if sleeper is not None:
                sleeper.sleep(latency)
            return
        raise error(
            f"injected fault at {point} (trigger #{trigger_no})")

    def clock_offset(self, clock: "Clock | None" = None) -> float:
        """Current injected wall-clock offset; evaluates ``clock.now``.

        Jump triggers *accumulate* into the offset, which persists until
        :meth:`reset` — once a clock has jumped it stays jumped, like a
        real wall-clock step.  Never sleeps and never raises.
        """
        if not self._active:
            return 0.0
        with self._lock:
            spec = self._points.get("clock.now")
            if spec is not None and self._evaluate(spec, clock):
                self._clock_offset += spec.jump_s
                self._counters["clock.now"].jumps_s += spec.jump_s
                self._refresh_active()
            return self._clock_offset

    def _evaluate(self, spec: _Spec, clock: "Clock | None") -> bool:
        """One evaluation of an armed point; True when it triggers."""
        cell = self._counters[spec.point]
        cell.evaluations += 1
        spec.calls += 1
        if spec.calls <= spec.after:
            return False
        triggered = False
        if spec.mode == "once":
            triggered = True
            self._points.pop(spec.point, None)
            self._refresh_active()
        elif spec.mode == "every-n":
            triggered = (spec.calls - spec.after) % spec.n == 0
        elif spec.mode == "for-duration":
            timer = clock if clock is not None else spec.clock
            assert spec.armed_at is not None and timer is not None
            if timer.monotonic() - spec.armed_at > spec.duration_s:
                self._points.pop(spec.point, None)
                self._refresh_active()
            else:
                triggered = True
        elif spec.mode == "probability":
            triggered = spec.rng.random() < spec.probability
        if triggered:
            cell.triggers += 1
        return triggered


# -- spec-string arming (config + CLI) -------------------------------------

def parse_spec(spec: str) -> tuple[str, str, dict[str, float]]:
    """Parse ``"point:mode[,key=value...]"`` into arm() arguments.

    Examples: ``disk.read:once``, ``session.execute:every-n=3``,
    ``disk.write:for-duration=5``, ``session.execute:p=0.2,
    seed=42,latency=0.05``, ``clock.now:once,jump=3600``
    (``p`` is shorthand for ``probability``).
    """
    point, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise FaultError(
            f"bad fault spec {spec!r}; expected 'point:mode[,key=value...]'")
    options: dict[str, float] = {}
    mode = ""
    for index, part in enumerate(rest.split(",")):
        key, eq, value = part.strip().partition("=")
        if index == 0:
            mode = _MODE_ALIASES.get(key, key)
            if eq:  # shorthand: every-n=3, for-duration=5, p=.2
                options[_MODE_VALUE_KEY.get(mode, mode)] = float(value)
            continue
        if key not in _OPTION_KEYS:
            raise FaultError(
                f"unknown fault option {key!r} in {spec!r}; known: "
                f"{', '.join(sorted(_OPTION_KEYS))}")
        if not eq:
            raise FaultError(f"fault option {key!r} needs a value")
        options[key] = float(value)
    return point, mode, options


_MODE_ALIASES = {"p": "probability"}
_MODE_VALUE_KEY = {
    "every-n": "n",
    "for-duration": "duration",
    "probability": "probability",
}
_OPTION_KEYS = frozenset(
    {"n", "duration", "probability", "seed", "latency", "jump", "after"})


def arm_from_spec(spec: str, clock: "Clock | None" = None,
                  injector: FaultInjector | None = None) -> None:
    """Arm a failure point from its string spec (config/CLI entry)."""
    target = injector if injector is not None else _default
    point, mode, options = parse_spec(spec)
    target.arm(
        point, mode,
        n=int(options.get("n", 1)),
        duration_s=options.get("duration", 0.0),
        probability=options.get("probability", 0.0),
        seed=int(options.get("seed", 0)),
        latency_s=options.get("latency", 0.0),
        jump_s=options.get("jump", 0.0),
        after=int(options.get("after", 0)),
        clock=clock,
    )


# -- the process-global injector behind the wired seams ---------------------

_default = FaultInjector()


def get_injector() -> FaultInjector:
    """The process-global injector the pipeline seams evaluate."""
    return _default


def fire(point: str, error: type[Exception] = InjectedFault,
         clock: "Clock | None" = None) -> None:
    """Module-level seam hook; see :meth:`FaultInjector.fire`."""
    if not _default._active:
        return
    _default.fire(point, error, clock)


def clock_offset(clock: "Clock | None" = None) -> float:
    """Module-level seam hook; see :meth:`FaultInjector.clock_offset`."""
    if not _default._active:
        return 0.0
    return _default.clock_offset(clock)


def reset() -> None:
    """Reset the process-global injector (test isolation helper)."""
    _default.reset()
