"""Workload execution with timing, mirroring the paper's test driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.session import Session


@dataclass
class RunReport:
    """Timing results of one workload run."""

    statements: int = 0
    errors: int = 0
    total_wallclock_s: float = 0.0
    per_statement_s: list[float] = field(default_factory=list)
    rows_returned: int = 0

    @property
    def statements_per_second(self) -> float:
        if self.total_wallclock_s <= 0:
            return 0.0
        return self.statements / self.total_wallclock_s

    @property
    def average_statement_s(self) -> float:
        if not self.per_statement_s:
            return 0.0
        return sum(self.per_statement_s) / len(self.per_statement_s)


class WorkloadRunner:
    """Runs statement lists through a session and measures wall time."""

    def __init__(self, session: "Session",
                 keep_per_statement: bool = True) -> None:
        self.session = session
        self.keep_per_statement = keep_per_statement

    def run(self, statements: Sequence[str],
            on_error: str = "raise",
            progress: Callable[[int, int], None] | None = None) -> RunReport:
        """Execute ``statements`` in order.

        ``on_error`` is "raise" (default) or "count" (record and go on).
        """
        clock = self.session.engine.clock
        report = RunReport()
        started = clock.monotonic()
        for i, text in enumerate(statements):
            t0 = clock.monotonic()
            try:
                result = self.session.execute(text)
                rows = getattr(result, "rows", None)
                if rows is not None:
                    report.rows_returned += len(rows)
            except ReproError:
                if on_error == "raise":
                    raise
                report.errors += 1
            elapsed = clock.monotonic() - t0
            report.statements += 1
            if self.keep_per_statement:
                report.per_statement_s.append(elapsed)
            if progress is not None:
                progress(i + 1, len(statements))
        report.total_wallclock_s = clock.monotonic() - started
        return report
