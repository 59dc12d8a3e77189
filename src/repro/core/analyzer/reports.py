"""Report rendering: cost diagrams, lock diagrams, textual summaries.

The analyzer presents "results and recommendations in textual and
graphical form"; in a terminal library the graphical form is ASCII bar
and strip charts.  The underlying series are exposed as plain data so
benchmarks and notebooks can plot them differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.analyzer.workload_view import (
    StatementProfile,
    statistics_sample,
)
from repro.core.ima import STATISTIC_FIELDS


@dataclass(frozen=True)
class CostDiagramEntry:
    """One bar group of the figure-6 style cost diagram."""

    label: str
    text: str
    actual_cost: float
    estimated_cost: float
    virtual_estimated_cost: float
    misestimated: tuple[str, ...] | None = None
    """The ``table.column`` pairs whose row estimates missed, if the
    statement's captured plan counted its nodes' rows (see
    :class:`~repro.core.analyzer.rules.RuleFindings`); None: not counted,
    and the costs decide."""

    @property
    def divergent(self) -> bool:
        if self.misestimated is not None:
            return bool(self.misestimated)
        if self.actual_cost <= 0 or self.estimated_cost <= 0:
            return False
        ratio = max(self.actual_cost / self.estimated_cost,
                    self.estimated_cost / self.actual_cost)
        return ratio >= 2.0


@dataclass
class CostDiagram:
    """Actual / estimated / virtual-index-estimated cost per statement."""

    entries: list[CostDiagramEntry] = field(default_factory=list)

    def render(self, width: int = 60) -> str:
        if not self.entries:
            return "(no statements recorded)"
        peak = max(max(e.actual_cost, e.estimated_cost,
                       e.virtual_estimated_cost)
                   for e in self.entries) or 1.0
        lines: list[str] = []
        for entry in self.entries:
            lines.append(f"{entry.label}  {entry.text[:70]}")
            for name, value in (("actual   ", entry.actual_cost),
                                ("estimated", entry.estimated_cost),
                                ("w/virtual", entry.virtual_estimated_cost)):
                bar = "#" * max(1, round(width * value / peak)) if value > 0 \
                    else ""
                lines.append(f"  {name} |{bar:<{width}}| {value:12.1f}")
            if entry.misestimated:
                lines.append(f"  ! row estimates miss on "
                             f"{', '.join(entry.misestimated)} — "
                             f"collect statistics")
            elif entry.divergent:
                lines.append("  ! actual and estimated costs diverge — "
                             "collect statistics")
        return "\n".join(lines)


def cost_diagram(profiles: Sequence[StatementProfile],
                 virtual_costs: dict[int, float] | None = None,
                 top: int = 10,
                 misestimated: dict[int, tuple[str, ...]] | None = None,
                 ) -> CostDiagram:
    """Build the figure-6 diagram for the ``top`` most expensive
    statements; ``virtual_costs`` maps statement hash to the estimated
    cost with recommended virtual indexes, ``misestimated`` to the
    columns whose row estimates missed (see :class:`CostDiagramEntry`)."""
    virtual_costs = virtual_costs or {}
    misestimated = misestimated or {}
    ranked = sorted(profiles, key=lambda p: p.avg_actual_cost, reverse=True)
    diagram = CostDiagram()
    for i, profile in enumerate(ranked[:top], start=1):
        diagram.entries.append(CostDiagramEntry(
            label=f"Q{i}",
            text=profile.text,
            actual_cost=profile.avg_actual_cost,
            estimated_cost=profile.avg_estimated_cost,
            virtual_estimated_cost=virtual_costs.get(
                profile.text_hash, profile.avg_estimated_cost),
            misestimated=misestimated.get(profile.text_hash),
        ))
    return diagram


@dataclass(frozen=True)
class LockSample:
    timestamp: float
    locks_held: int
    lock_waits: int
    deadlocks: int


@dataclass
class LocksDiagram:
    """Figure-8 style lock statistics over time.

    ``lock_waits``/``deadlocks`` in the samples are cumulative counters;
    the diagram differentiates them so the strip shows *events per
    interval* with markers.
    """

    samples: list[LockSample] = field(default_factory=list)

    @property
    def wait_events(self) -> list[tuple[float, int]]:
        return self._deltas("lock_waits")

    @property
    def deadlock_events(self) -> list[tuple[float, int]]:
        return self._deltas("deadlocks")

    def _deltas(self, attribute: str) -> list[tuple[float, int]]:
        events: list[tuple[float, int]] = []
        previous = 0
        for sample in self.samples:
            value = getattr(sample, attribute)
            delta = value - previous
            previous = value
            if delta > 0:
                events.append((sample.timestamp, delta))
        return events

    def render(self, width: int = 60) -> str:
        if not self.samples:
            return "(no statistics samples)"
        peak = max(s.locks_held for s in self.samples) or 1
        wait_times = {t for t, _ in self.wait_events}
        deadlock_times = {t for t, _ in self.deadlock_events}
        lines = [f"locks held over time (peak={peak})"]
        for sample in self.samples:
            bar = "#" * max(0, round(width * sample.locks_held / peak))
            markers = ""
            if sample.timestamp in wait_times:
                markers += " W"
            if sample.timestamp in deadlock_times:
                markers += " D!"
            lines.append(
                f"  t={sample.timestamp:10.1f} |{bar:<{width}}| "
                f"{sample.locks_held:4d}{markers}"
            )
        lines.append(f"lock waits: {sum(n for _, n in self.wait_events)}, "
                     f"deadlocks: {sum(n for _, n in self.deadlock_events)}")
        return "\n".join(lines)


def locks_diagram(statistics_rows: Sequence[tuple]) -> LocksDiagram:
    """Build the diagram from statistics rows, in any shape
    :func:`~repro.core.analyzer.workload_view.statistics_sample` reads
    (``WorkloadView.statistics``, ``wl_statistics``, ``ima_statistics``).
    """
    held, waits, deadlocks = (1 + STATISTIC_FIELDS.index(name) for name in (
        "locks_held", "lock_waits", "deadlocks"))
    diagram = LocksDiagram()
    for row in statistics_rows:
        sample = statistics_sample(row)
        diagram.samples.append(LockSample(
            timestamp=sample[0],
            locks_held=sample[held],
            lock_waits=sample[waits],
            deadlocks=sample[deadlocks],
        ))
    diagram.samples.sort(key=lambda s: s.timestamp)
    return diagram
