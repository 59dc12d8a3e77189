"""Text and JSON rendering of findings."""

from __future__ import annotations

import json
from collections import Counter

from repro.staticcheck.findings import Finding

JSON_VERSION = 7
"""The one report format: ``version`` plus ``findings``, each finding
carrying its location, rule id, severity, message, ``trace``
(interprocedural evidence chain, empty for per-module rules) and — on
PRF findings only — ``hot_root`` (the ``hotpath`` root whose
propagation made the reported line hot)."""


def render_text(findings: list[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    if not findings:
        return "staticcheck: no findings"
    lines = [finding.render() for finding in findings]
    by_rule = Counter(finding.rule_id for finding in findings)
    breakdown = ", ".join(
        f"{rule_id}: {count}" for rule_id, count in sorted(by_rule.items())
    )
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"staticcheck: {len(findings)} {noun} ({breakdown})")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report (the CI artifact)."""
    payload = {
        "version": JSON_VERSION,
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
