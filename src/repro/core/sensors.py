"""The sensor interface: monitoring call sites inside the engine core.

Figure 2 of the paper places local sensors along the path a statement
takes through the DBMS: wallclock start, query text at the parser,
tables/attributes/available indexes at the optimizer's catalog access,
estimated costs and chosen indexes after optimization, actual costs
after execution, wallclock stop.

The engine's session pipeline calls these methods unconditionally; the
"Original" (monitoring-free) build simply plugs in :class:`NullSensors`,
whose methods do nothing.  This slightly *overstates* the original
build's cost (the call dispatch remains), making measured monitoring
overheads conservative.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.sql.lexer import statement_shape


_blake2b = hashlib.blake2b
"""Bound once at import: :func:`statement_hash` runs per statement, so
the hot path skips the module-attribute walk."""


def statement_hash(text: str) -> int:
    """Stable 64-bit hash of a string."""
    return int.from_bytes(
        _blake2b(text.encode("utf-8"), digest_size=8).digest(),
        "big",
        signed=True,  # fits the storage engine's signed 64-bit INT
    )


def statement_key(text: str) -> int:
    """The monitor's key for a statement: the hash of its shape, so
    texts that differ only in literal values are one statement.  (The
    session has the shape in hand and hashes it itself.)"""
    return statement_hash(statement_shape(text))


@dataclass(slots=True)
class StatementContext:
    """Per-statement scratchpad threaded through the sensor calls.  The
    leading fields are what ``statement_start`` knows (it builds one
    per statement, positionally)."""

    text: str
    text_hash: int
    """:func:`statement_key` of the text."""
    started_monotonic: float = 0.0
    session_id: int = 0
    degradation: int = 0
    """Shard degradation level stamped at statement_start (a benign
    stale read): later sensors of the same statement use it to decide
    what detail to skip without re-reading monitor state.  The
    authoritative issued/sampled_out/shed counting happens in the
    monitor's admission gate, under its counter lock."""
    monitor_time_s: float = 0.0
    """Time spent inside monitoring code for this statement (figure 5)."""
    sensor_calls: int = 0
    """Sensor fires so far, folded into the monitor's counters by the
    terminal sensor in one lock round-trip (deferred accounting)."""
    wall_time: float = 0.0
    """Wall-clock timestamp captured once per statement (at parse) and
    reused by every later sensor and the statistics sample — deferred
    timestamping: records for one statement are written microseconds
    apart and share one clock read instead of paying one syscall per
    record."""
    statement_kind: str = ""
    is_new: bool = True
    """Whether parse_complete created the statement's record (also
    while it has recorded nothing): the statement's object references
    are logged only then."""
    # Scratch fields filled by earlier sensors, consumed at execute_complete.
    estimated_io: float = 0.0
    estimated_cpu: float = 0.0
    optimize_time_s: float = 0.0
    used_indexes: str = ""
    """Comma-joined, as the workload record carries them."""


class Sensors:
    """Interface of the in-core sensors; all methods must be cheap."""

    def statement_start(self, text: str, session_id: int = 0,
                        text_hash: int | None = None,
                        prepared: Any = None,
                        ) -> StatementContext | None:
        """Wallclock start + query text capture.  ``text_hash`` is the
        statement's :func:`statement_key` where the caller has it.

        ``prepared`` is the session's prepared statement for ``text``
        (its ``kind``, ``tables`` and ``optimized`` plan) when it has
        one: this call then also records what :meth:`parse_complete`
        and — for a SELECT — :meth:`optimize_complete` would, and the
        caller fires neither."""
        return None

    def parse_complete(self, ctx: StatementContext | None, kind: str,
                       table_names: Sequence[str]) -> None:
        """Called when the parser has resolved the statement's tables."""

    def optimize_complete(self, ctx: StatementContext | None,
                          estimated_io: float, estimated_cpu: float,
                          used_indexes: Sequence[str],
                          available_indexes: Sequence[str],
                          referenced_columns: Sequence[tuple[str, str]],
                          optimize_time_s: float,
                          plan_supplier: "Callable[[], str] | None" = None,
                          ) -> None:
        """Called with the optimizer's cost estimates and index choices.

        ``plan_supplier`` lazily renders the plan text; the monitor only
        invokes it for statements expensive enough to capture."""

    def execute_complete(self, ctx: StatementContext | None,
                         actual_io: float, actual_cpu: float,
                         logical_reads: int, physical_reads: int,
                         tuples_processed: int, rows_returned: int,
                         execute_time_s: float,
                         wallclock_s: float) -> None:
        """Called after execution with actual costs and wallclock stop."""

    def statement_error(self, ctx: StatementContext | None,
                        error: str) -> None:
        """Called when a statement fails anywhere in the pipeline."""

    def sample_statistics(self, supplier: "Callable[[], Mapping[str, Any]]",
                          ctx: StatementContext | None = None) -> None:
        """Record a sample of system-wide statistics (sessions, locks,
        cache usage, ...), at the wall-clock time ``ctx`` read for its
        statement if it read one.

        ``supplier`` is only invoked if a sample will actually be taken,
        so the monitoring-free build never pays for gathering the values.
        """


class NullSensors(Sensors):
    """The monitoring-free build: every sensor is a no-op.

    Inherits the base class' empty methods; exists as a named type so
    experiment setups read explicitly (``sensors=NullSensors()``).
    """
