"""The analyzer orchestrator: workload view -> report + recommendations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import faultsim
from repro.core.analyzer.index_advisor import IndexAdvisor
from repro.errors import AnalyzerError
from repro.core.analyzer.recommendations import Recommendation
from repro.core.analyzer.reports import (
    CostDiagram,
    LocksDiagram,
    cost_diagram,
    locks_diagram,
)
from repro.core.analyzer.rules import RuleFindings, run_rules
from repro.core.analyzer.trends import Trend, trends_from_statistics
from repro.core.analyzer.workload_view import WorkloadView, fold
from repro.core.workload_db import WorkloadDatabase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    view: WorkloadView
    findings: RuleFindings
    index_recommendations: list[Recommendation]
    cost_diagram: CostDiagram
    locks_diagram: LocksDiagram
    trends: dict[str, Trend] = field(default_factory=dict)
    duration_s: float = 0.0
    statements_analyzed: int = 0
    whatif_calls: int = 0
    rows_folded: int = 0
    """Workload-DB rows this scan read to build its view."""

    @property
    def recommendations(self) -> list[Recommendation]:
        """Rule recommendations followed by index recommendations."""
        return list(self.findings.recommendations) \
            + list(self.index_recommendations)

    def render_text(self) -> str:
        """The DBA-facing textual report."""
        lines = [
            "=" * 72,
            "ANALYZER REPORT",
            "=" * 72,
            f"statements analyzed: {self.statements_analyzed}, "
            f"{self.whatif_calls} what-if calls, {self.rows_folded} rows read "
            f"(analysis took {self.duration_s:.1f}s)",
            "",
            f"statements with significant cost divergence: "
            f"{len(self.findings.divergent_statements)}",
            f"tables with missing/stale statistics: "
            f"{', '.join(self.findings.tables_needing_statistics) or '-'}",
            f"tables above the overflow threshold: "
            f"{', '.join(self.findings.overflow_tables) or '-'}",
            "",
            "RECOMMENDATIONS",
            "-" * 72,
        ]
        if self.recommendations:
            lines.extend(r.describe() for r in self.recommendations)
        else:
            lines.append("(none — the physical design fits the workload)")
        lines += ["", "COST DIAGRAM (top statements)", "-" * 72,
                  self.cost_diagram.render()]
        captured = [
            (profile, self.view.plans[profile.text_hash])
            for profile in self.view.top_statements(count=3)
            if profile.text_hash in self.view.plans
        ]
        if captured:
            lines += ["", "CAPTURED PLANS (most expensive statements)",
                      "-" * 72]
            for profile, plan_text in captured:
                lines.append(f"{profile.text[:70]}")
                lines.append("  " + plan_text.replace("\n", "\n  "))
        lines += ["", "LOCKS DIAGRAM", "-" * 72, self.locks_diagram.render()]
        return "\n".join(lines)


class Analyzer:
    """Scans collected monitor data and recommends design changes."""

    def __init__(self, database: "Database") -> None:
        self.database = database

    def analyze_workload_db(self,
                            workload_db: WorkloadDatabase) -> AnalysisReport:
        """Analyze the persisted workload history (the normal path).

        The ``analyzer.scan`` failure point fires before any workload
        data is read, so an injected fault models an analyzer that
        cannot reach the workload DB at all.
        """
        faultsim.fire("analyzer.scan", error=AnalyzerError,
                      clock=self.database.clock)
        view, rows_folded = fold(workload_db)
        started = self.database.clock.monotonic()
        findings = run_rules(view, self.database)
        advice = IndexAdvisor(self.database).advise(view.statements.values())
        diagram = cost_diagram(list(view.statements.values()),
                               advice.virtual_costs)
        return AnalysisReport(
            view=view,
            findings=findings,
            index_recommendations=advice.recommendations,
            cost_diagram=diagram,
            locks_diagram=locks_diagram(view.statistics),
            trends=trends_from_statistics(view.statistics),
            duration_s=self.database.clock.monotonic() - started,
            statements_analyzed=len(view.statements),
            whatif_calls=advice.whatif_calls,
            rows_folded=rows_folded,
        )
