"""Spans recorded from outside the program.

The benchmark installs timing shims around each layer's public entry
point by *rebinding a name* (a module global, an instance attribute or
a class attribute) and restores every binding afterwards.  Targets are
resolved by dotted name when the traced run starts: a target that no
longer exists is reported under ``missing_hooks``, the metrics that
needed it read ``null``, and nothing else changes — later changes to
the program may move or remove an entry point without editing this
directory.

A span is ``(name, start_ns, end_ns, parent, stmt_id)``; spans live in
parallel in-memory arrays until the run ends.  A span's *self time* is
its duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Any, Callable, Iterable, Sequence

_clock = time.perf_counter_ns

SENSOR_CALLS = ("statement_start", "parse_complete", "optimize_complete",
                "execute_complete", "sample_statistics", "statement_error")

# hook name -> (root, dotted path below the root).  A root is either a
# key of the ``roots`` mapping passed to :func:`install_hooks` or a
# module name imported when the hooks are installed.
HOOKS: dict[str, tuple[str, str]] = {
    "sql.lex": ("repro.sql.parser", "tokenize"),
    "sql.parse": ("repro.engine.session", "parse_statement"),
    "optimizer.optimize": ("session", "optimizer.optimize_select"),
    "execution.execute": ("session", "executor.execute"),
    "engine.locks.acquire": ("engine", "lock_manager.acquire"),
    "engine.locks.release": ("engine", "lock_manager.release_all"),
    "core.ring_buffer.append": ("monitor", "workload.append"),
    "core.workload_db.append": ("workload_db", "append"),
    "core.analyzer.rules": ("repro.core.analyzer.analyzer", "run_rules"),
    "core.analyzer.index_advisor": ("repro.core.analyzer.analyzer",
                                    "IndexAdvisor.advise"),
    "core.analyzer.whatif": ("repro.core.analyzer.index_advisor",
                             "what_if_optimize"),
}
SENSORS_ROOT = ("session", "sensors")


class Tracer:
    """Span storage plus the stack that gives each span its parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stmt = array("i")
        self.current = -1
        self.statement = -1
        self.statements = 0

    def intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def open(self, ident: int) -> int:
        index = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self.current)
        self.stmt.append(self.statement)
        self.end.append(0)
        self.current = index
        self.start.append(_clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _clock()
        self.current = self.parent[index]

    def span(self, name: str) -> "_Span":
        """Context manager for calls the benchmark makes itself."""
        return _Span(self, self.intern(name))

    def open_statement(self, ident: int) -> int:
        """Root span of one statement; its children share ``stmt_id``."""
        self.statement = self.statements
        self.statements += 1
        return self.open(ident)

    def close_statement(self, index: int) -> None:
        self.close(index)
        self.statement = -1

    def wrap(self, name: str, function: Callable[..., Any],
             ) -> Callable[..., Any]:
        """``function`` with a span around every call."""
        ident = self.intern(name)
        open_span, close_span = self.open, self.close

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = open_span(ident)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        shim.__wrapped__ = function  # type: ignore[attr-defined]
        return shim

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        names = self.names
        return [(names[self.name_id[i]], self.start[i], self.end[i],
                 self.parent[i], self.stmt[i])
                for i in range(len(self.start))]


class _Span:
    def __init__(self, tracer: Tracer, ident: int) -> None:
        self._tracer = tracer
        self._ident = ident
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._tracer.open(self._ident)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self._index)

    @property
    def duration_ns(self) -> int:
        tracer = self._tracer
        return tracer.end[self._index] - tracer.start[self._index]


def self_times(spans: Sequence[tuple[str, int, int, int, int]]) -> list[int]:
    """Self time of each span: its duration minus the union of its
    direct children's intervals, clipped to the span itself."""
    children: dict[int, list[tuple[int, int]]] = {}
    for _name, start, end, parent, _stmt in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _stmt) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def relatives(spans: Sequence[tuple[str, int, int, int, int]],
              ) -> tuple[list[int], list[int]]:
    """Per span: how many direct children and how many descendants."""
    children = [0] * len(spans)
    descendants = [0] * len(spans)
    for _name, _start, _end, parent, _stmt in spans:
        if parent >= 0:
            children[parent] += 1
        while parent >= 0:
            descendants[parent] += 1
            parent = spans[parent][3]
    return children, descendants


def shim_overhead(calls: int = 2000, repeats: int = 5) -> tuple[float, float]:
    """Nanoseconds one shim adds ``(inside its own span, around it)``.

    The part around a span is paid by its parent: nine hooked calls in
    a 180 us statement would otherwise put ~8 us of tracing into the
    session layer's self time.  Median of ``repeats`` measurements.
    """
    def target(left: int, right: int) -> None:
        return None

    inner, outer = [], []
    for _ in range(repeats):
        tracer = Tracer()
        shim = tracer.wrap("calibration", target)
        t0 = _clock()
        for _ in range(calls):
            target(1, 2)
        bare = (_clock() - t0) / calls
        t0 = _clock()
        for _ in range(calls):
            shim(1, 2)
        whole = (_clock() - t0) / calls
        inside = sum(tracer.end) / calls - sum(tracer.start) / calls - bare
        inner.append(max(0.0, inside))
        outer.append(max(0.0, whole - bare - inside))
    inner.sort()
    outer.sort()
    return inner[repeats // 2], outer[repeats // 2]


def resolve(root: Any, dotted: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, value)`` of ``root.<dotted>``, or None if
    any step of the path is gone."""
    owner = root
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def read(root: Any, dotted: str) -> Any:
    """The value at ``root.<dotted>`` (called if it is a method), or
    None — counters are read through this so that a renamed counter
    costs one metric, not the run."""
    found = resolve(root, dotted) if root is not None else None
    if found is None:
        return None
    value = found[2]
    return value() if callable(value) else value


class _SensorProxy:
    """Delegates to the session's sensor object, timing each fire."""

    def __init__(self, target: Any, tracer: Tracer,
                 calls: Iterable[str]) -> None:
        self._target = target
        for call in calls:
            setattr(self, call, tracer.wrap(f"core.sensors.{call}",
                                            getattr(target, call)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


class Hooks:
    """The installed shims of one traced run."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def rebind(self, owner: Any, attribute: str, value: Any) -> None:
        # vars() tells whether *this* owner holds the binding (a module
        # global, a class attribute: put it back) or inherits it (a
        # method reached through an instance: delete the override).
        self._restore.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._restore:
            owner, attribute, held = self._restore.pop()
            if held is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, held)


_ABSENT = object()


def install_hooks(roots: dict[str, Any], tracer: Tracer,
                  hooks: dict[str, tuple[str, str]] | None = None) -> Hooks:
    """Rebind every hook target that exists to a timing shim.

    Call ``.restore()`` on the result in a ``finally``.
    """
    installed = Hooks()
    for name, (root_name, dotted) in (hooks or HOOKS).items():
        root = roots.get(root_name)
        if root is None and root_name not in roots:
            try:
                root = importlib.import_module(root_name)
            except ImportError:
                root = None
        found = resolve(root, dotted) if root is not None else None
        if found is None:
            installed.missing.append(name)
            continue
        owner, attribute, value = found
        installed.rebind(owner, attribute, tracer.wrap(name, value))
    root_name, attribute = SENSORS_ROOT
    session = roots.get(root_name)
    sensors = getattr(session, attribute, None)
    calls = [call for call in SENSOR_CALLS if hasattr(sensors, call)]
    installed.missing.extend(f"core.sensors.{call}" for call in SENSOR_CALLS
                             if call not in calls)
    if calls:
        installed.rebind(session, attribute,
                          _SensorProxy(sensors, tracer, calls))
    return installed
