"""The analyzer: from collected data to physical-design recommendations.

Implements the paper's three analysis levels:

1. **reporting** — :mod:`repro.core.analyzer.reports` renders cost and
   lock diagrams plus a textual summary;
2. **rule-based recommendations** — :mod:`repro.core.analyzer.rules`
   (cost divergence -> collect statistics; missing histograms; >10 %
   overflow pages -> MODIFY TO BTREE) and
   :mod:`repro.core.analyzer.index_advisor` (virtual-index what-if);
3. **trend interpretation** — :mod:`repro.core.analyzer.trends` fits
   the statistics time series (the paper's section VI outlook).

:class:`~repro.core.analyzer.analyzer.Analyzer` orchestrates all of it
over a recorded workload database against a live target database, and
:mod:`repro.core.analyzer.recommendations` applies accepted changes
(the control loop's *implementation* phase).
"""

from repro.core.analyzer.analyzer import Analyzer, AnalysisReport
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
    apply_recommendations,
)
from repro.core.analyzer.index_advisor import IndexAdvisor
from repro.core.analyzer.dependencies import (
    SelectionResult,
    select_recommendations,
)
from repro.core.analyzer.reports import CostDiagram, LocksDiagram

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "CostDiagram",
    "IndexAdvisor",
    "LocksDiagram",
    "Recommendation",
    "RecommendationKind",
    "SelectionResult",
    "apply_recommendations",
    "select_recommendations",
]
