"""Tests for the hot-path performance phase: the PRF001–PRF005 rules,
the ``hotpath``/``coldpath``/``allocfree`` annotation grammar, the
hot-path propagation itself (roots, witnessed stops, depth cap,
provenance) and the ``hot_root`` serialization.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck import (
    Finding,
    Severity,
    StaticcheckConfig,
    analyze_project,
    build_project,
    render_json,
)
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.hotpath import compute_hotpaths

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"

PERF_CONFIG = StaticcheckConfig(
    hotpath_scope_paths=("*perf_violation.py", "*perf_clean.py",
                         "*demo_hot.py"),
)


def perf_findings(path: Path) -> list[Finding]:
    findings = analyze_project([path], PERF_CONFIG)
    return [f for f in findings if f.rule_id.startswith("PRF")]


def demo_findings(tmp_path: Path, source: str) -> list[Finding]:
    """Run the deep phase over one inline module in PRF scope."""
    target = tmp_path / "demo_hot.py"
    target.write_text(source)
    return perf_findings(target)


class TestFixturePair:
    def test_violation_fixture_hits_every_rule_once(self):
        findings = perf_findings(FIXTURES / "perf_violation.py")
        assert [(f.rule_id, f.line) for f in findings] == [
            ("PRF001", 19),
            ("PRF003", 23),
            ("PRF002", 26),
            ("PRF004", 27),
            ("PRF005", 29),
        ]
        assert all(f.severity is Severity.ERROR for f in findings)

    def test_findings_carry_hotness_provenance(self):
        findings = perf_findings(FIXTURES / "perf_violation.py")
        for finding in findings:
            assert finding.hot_root == "perf_violation.Monitor.record"
            assert finding.trace[0].note == "declared hotpath root"
        # Propagated findings also record the call edge that made the
        # containing function hot.
        propagated = [f for f in findings if f.rule_id == "PRF005"]
        assert any("hot call to" in entry.note
                   for entry in propagated[0].trace)

    def test_clean_fixture_is_silent(self):
        assert perf_findings(FIXTURES / "perf_clean.py") == []


class TestHotPathPropagation:
    def _hotpaths(self, *sources: tuple[str, str]):
        modules = [ModuleContext.from_source(path, text)
                   for path, text in sources]
        return compute_hotpaths(build_project(modules))

    def test_roots_and_propagation(self):
        result = self._hotpaths(("src/repro/demo.py", (
            "# staticcheck: hotpath\n"
            "def root():\n"
            "    helper()\n"
            "def helper():\n"
            "    pass\n"
            "def bystander():\n"
            "    pass\n"
        )))
        assert result.roots == ("repro.demo.root",)
        assert result.is_hot("repro.demo.root")
        assert result.is_hot("repro.demo.helper")
        assert not result.is_hot("repro.demo.bystander")
        assert result.root_of("repro.demo.helper") == "repro.demo.root"

    def test_provenance_is_a_call_chain_from_the_root(self):
        result = self._hotpaths(("src/repro/demo.py", (
            "# staticcheck: hotpath\n"
            "def root():\n"
            "    middle()\n"
            "def middle():\n"
            "    leaf()\n"
            "def leaf():\n"
            "    pass\n"
        )))
        notes = [entry.note for entry in result.hot["repro.demo.leaf"]]
        assert notes == [
            "declared hotpath root",
            "hot call to repro.demo.middle()",
            "hot call to repro.demo.leaf()",
        ]

    def test_witnessed_coldpath_stops_propagation(self):
        result = self._hotpaths(("src/repro/demo.py", (
            "# staticcheck: hotpath\n"
            "def root():\n"
            "    slow()\n"
            "# staticcheck: coldpath(cache-miss-only)\n"
            "def slow():\n"
            "    deeper()\n"
            "def deeper():\n"
            "    pass\n"
        )))
        assert not result.is_hot("repro.demo.slow")
        assert not result.is_hot("repro.demo.deeper")
        assert result.cold["repro.demo.slow"] == "cache-miss-only"

    def test_bare_coldpath_is_not_a_waiver(self):
        result = self._hotpaths(("src/repro/demo.py", (
            "# staticcheck: hotpath\n"
            "def root():\n"
            "    slow()\n"
            "# staticcheck: coldpath\n"
            "def slow():\n"
            "    pass\n"
        )))
        assert result.is_hot("repro.demo.slow")

    def test_coldpath_wins_over_hotpath_on_the_same_function(self):
        result = self._hotpaths(("src/repro/demo.py", (
            "# staticcheck: hotpath\n"
            "# staticcheck: coldpath(disabled-for-now)\n"
            "def root():\n"
            "    pass\n"
        )))
        assert not result.is_hot("repro.demo.root")

    def test_depth_cap_bounds_the_walk(self):
        lines = ["# staticcheck: hotpath", "def f0():", "    f1()"]
        for index in range(1, 22):
            lines += [f"def f{index}():", f"    f{index + 1}()"]
        lines += ["def f22():", "    pass"]
        result = self._hotpaths(
            ("src/repro/demo.py", "\n".join(lines) + "\n"))
        assert result.is_hot("repro.demo.f20")
        assert not result.is_hot("repro.demo.f21")


class TestRuleSubtleties:
    def test_type_annotations_are_not_allocations(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "from typing import Callable\n"
            "# staticcheck: hotpath\n"
            "def record(cb: Callable[[int], int]) -> list[int]:\n"
            "    total: int = cb(1)\n"
            "    return None\n"
        ))
        assert findings == []

    def test_annassign_values_are_still_walked(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "# staticcheck: hotpath\n"
            "def record():\n"
            "    rows: list = [1, 2]\n"
        ))
        assert [(f.rule_id, f.line) for f in findings] == [("PRF001", 3)]

    def test_error_paths_are_exempt(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "# staticcheck: hotpath\n"
            "def record(mode):\n"
            "    if mode is None:\n"
            "        raise ValueError(f'bad mode {mode.value}')\n"
            "    for _ in (1, 2):\n"
            "        if mode.value > 2:\n"
            "            raise ValueError(f'bad {mode.value} {mode.value}')\n"
        ))
        assert findings == []

    def test_prf002_depth_two_needs_two_occurrences(self, tmp_path):
        source = (
            "# staticcheck: hotpath\n"
            "def record(self, rows):\n"
            "    for row in rows:\n"
            "        self.db.append(row)\n"       # depth 3: 1 hit enough
            "    for row in rows:\n"
            "        rows.sort()\n"                # depth 2, once: silent
            "    for row in rows:\n"
            "        self.total += row.weight\n"   # rebound base: silent
        )
        findings = demo_findings(tmp_path, source)
        assert [(f.rule_id, f.line) for f in findings] == [("PRF002", 4)]

    def test_allocfree_waiver_requires_a_witness(self, tmp_path):
        bare = demo_findings(tmp_path, (
            "# staticcheck: hotpath\n"
            "def record(value):\n"
            "    return {'value': value}  # staticcheck: allocfree\n"
        ))
        assert [f.rule_id for f in bare] == ["PRF001"]
        witnessed = demo_findings(tmp_path, (
            "# staticcheck: hotpath\n"
            "def record(value):\n"
            "    return {'value': value}"
            "  # staticcheck: allocfree(record-is-the-product)\n"
        ))
        assert witnessed == []

    def test_prf004_context_capture_is_the_sanctioned_shape(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "import time\n"
            "# staticcheck: hotpath\n"
            "def record(ctx):\n"
            "    ctx.wall_time = time.time()\n"   # deferred: exempt
            "    stamp = time.time()\n"           # re-read: flagged
        ))
        assert [(f.rule_id, f.line) for f in findings] == [("PRF004", 5)]

    def test_lock_held_allocations_are_prf005_not_prf001(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "import threading\n"
            "class Buffer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.rows = []\n"
            "    # staticcheck: hotpath\n"
            "    def record(self, value):\n"
            "        with self._lock:\n"
            "            self.rows = [value]\n"
        ))
        assert [f.rule_id for f in findings] == ["PRF005"]
        assert "demo_hot.Buffer._lock" in findings[0].message

    def test_init_is_never_hot(self, tmp_path):
        findings = demo_findings(tmp_path, (
            "class Buffer:\n"
            "    # staticcheck: hotpath\n"
            "    def __init__(self):\n"
            "        self.rows = [1, 2]\n"
        ))
        assert findings == []

    def test_out_of_scope_modules_never_report(self, tmp_path):
        target = tmp_path / "elsewhere.py"
        target.write_text(
            "# staticcheck: hotpath\n"
            "def record(value):\n"
            "    return {'value': value}\n"
        )
        assert perf_findings(target) == []


class TestSchemaV4:
    def test_hot_root_round_trips_through_json(self):
        findings = perf_findings(FIXTURES / "perf_violation.py")
        reported = json.loads(render_json(findings))["findings"]
        assert [f["hot_root"] for f in reported] == \
            [f.hot_root for f in findings]
        assert all(len(f["trace"]) == len(original.trace)
                   for f, original in zip(reported, findings))

    def test_hot_root_absent_for_non_perf_findings(self):
        findings = analyze_project(
            [FIXTURES / "lockorder_violation.py"], StaticcheckConfig())
        assert findings, "fixture should produce LCK003"
        reported = json.loads(render_json(findings))["findings"]
        assert all("hot_root" not in f for f in reported)
