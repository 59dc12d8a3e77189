"""What the sensors share: statement keys and the parsed-statement context.

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
from typing import Any

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
    """What the parse and plan sensors learn about a statement the
    session had to parse, under the attribute names a prepared
    statement carries the same facts by, so the terminal sensor reads
    either one the same way.  A statement that failed before its parse
    has no ``kind``."""

    shape_hash: int
    """:func:`statement_key` of the text."""
    kind: str | None = None
    tables: tuple[str, ...] = ()
    optimized: Any = None
    """The optimizer's result, for a SELECT the session planned."""
    optimize_time_s: float = 0.0
    counted: dict[int, int] | None = None
    """Rows per plan node (by ``id``), for an execution that counts them."""
