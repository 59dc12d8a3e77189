"""The finding/severity model shared by all rules and reporters.

Intra-procedural rules report a bare location; the interprocedural
(deep) rules additionally attach a ``trace`` — the chain of lock
acquisitions and call sites that makes the finding reachable — so a
report line like "blocking call under self._lock" always comes with
the evidence path a reviewer needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is; any finding fails the lint gate, and
    every rule reports errors."""

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TraceEntry:
    """One step of an interprocedural evidence chain."""

    path: str
    """File the step happens in."""

    line: int
    """1-based line of the step."""

    function: str
    """Qualified name of the function the step belongs to."""

    note: str
    """What the step is: ``acquires self._lock``, ``calls f()``, ..."""

    def render(self) -> str:
        return f"{self.path}:{self.line}: in {self.function}: {self.note}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "function": self.function,
            "note": self.note,
        }


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    path: str
    """Path of the offending file, as given to the analyzer."""

    line: int
    """1-based line of the offending node."""

    column: int
    """0-based column of the offending node."""

    rule_id: str
    """Stable identifier, e.g. ``LCK001``."""

    severity: Severity
    message: str

    trace: tuple[TraceEntry, ...] = field(default=())
    """Interprocedural evidence chain (empty for per-module rules)."""

    hot_root: str | None = None
    """Hotness provenance (PRF rules): the qualname of
    the ``hotpath`` root whose propagation made the reported line hot;
    the ``trace`` holds the call chain from that root."""

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)

    def render(self) -> str:
        """``path:line:col: RULE severity: message`` plus, for deep
        findings, one indented line per trace step."""
        head = (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule_id} {self.severity}: {self.message}")
        if not self.trace:
            return head
        steps = "\n".join(
            f"    {i}. {entry.render()}"
            for i, entry in enumerate(self.trace, start=1)
        )
        return f"{head}\n{steps}"

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "trace": [entry.to_dict() for entry in self.trace],
        }
        if self.hot_root is not None:
            payload["hot_root"] = self.hot_root
        return payload
