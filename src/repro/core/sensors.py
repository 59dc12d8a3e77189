"""What the sensors share: statement keys and the per-statement context.

Figure 2 of the paper places local sensors along the path a statement
takes through the DBMS: wallclock start, query text at the parser,
tables/attributes/available indexes at the optimizer's catalog access,
estimated costs and chosen indexes after optimization, actual costs
after execution, wallclock stop.  The one sensor implementation is
:class:`~repro.core.monitor.MonitorSensors`; an engine without it (the
*Original* setup) skips every sensor site and runs no code of this
module or the monitor's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

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
    session_id: int = 0
    degradation: int = 0
    """Monitor degradation level stamped at statement_start, the
    statement's one read of it: every later sensor and the monitor's
    admission gate (which counts issued/sampled_out/shed by it) decide
    by this value, so the statement is recorded at the rung it
    started on."""
    monitor_time_s: float = 0.0
    """Time spent inside monitoring code for this statement (figure 5)."""
    sensor_calls: int = 0
    """Sensor fires so far, folded into the monitor's counters by the
    terminal sensor in one lock round-trip (deferred accounting)."""
    wall_time: float = 0.0
    """Wall-clock timestamp captured once per statement, by the sensor
    that records its parse (``parse_complete``, or ``statement_start``
    for a prepared statement), and reused by every later sensor and the
    statistics sample — deferred timestamping: records for one
    statement are written microseconds apart and share one clock read
    instead of paying one syscall per record."""
    logs_references: bool = False
    """Whether this execution logs the statement's object references
    and captures its plan: the parse inserted the statement's record
    and the stamped level is above COUNTS_ONLY."""
    # Scratch fields filled by earlier sensors, consumed at execute_complete.
    estimated_io: float = 0.0
    estimated_cpu: float = 0.0
    optimize_time_s: float = 0.0
    used_indexes: str = ""
    """Comma-joined, as the workload record carries them."""
