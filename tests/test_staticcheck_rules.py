"""Unit tests for every repro.staticcheck rule family.

Each rule has a fixture with known violations and a known-clean twin
under ``tests/staticcheck_fixtures/``; the tests pin exact rule IDs and
line numbers so a rule regression cannot hide behind "some finding was
reported".
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import (
    Finding,
    Severity,
    StaticcheckConfig,
    all_rules,
    analyze_paths,
    render_json,
    render_text,
)
from repro.staticcheck.annotations import AnnotationError, parse_annotations
from repro.staticcheck.driver import analyze_source

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"

FIXTURE_CONFIG = StaticcheckConfig(
    critical_except_paths=("*except_violation.py", "*except_clean.py"),
)


def findings_for(name: str) -> list[Finding]:
    return analyze_paths([FIXTURES / name], FIXTURE_CONFIG)


def ids_and_lines(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(f.rule_id, f.line) for f in findings]


class TestLockRules:
    def test_violations(self):
        findings = findings_for("lock_violation.py")
        assert ids_and_lines(findings) == [
            ("LCK001", 13),
            ("LCK001", 16),
            ("LCK001", 19),
        ]
        assert all(f.severity is Severity.ERROR for f in findings)
        assert "self.count" in findings[0].message
        assert "with self._lock:" in findings[0].message

    def test_clean_twin(self):
        assert findings_for("lock_clean.py") == []

    def test_init_is_exempt(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "        self.n = 1\n"
        )
        assert analyze_source("demo.py", source) == []

    def test_tuple_unpacking_target_is_caught(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def swap(self, other):\n"
            "        self.n, other.n = other.n, self.n\n"
        )
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("LCK001", 7)]

    def test_unannotated_attribute_without_the_lock(self):
        source = LOCKED_COUNTER + (
            "    def reset(self):\n"
            "        self.n = 0\n"
        )
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("LCK001", 10)]
        assert "without self._lock" in findings[0].message

    def test_two_locks_share_no_common_lock(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "        self.n = 0\n"
            "    def one(self):\n"
            "        with self._a:\n"
            "            self.n += 1\n"
            "    def two(self):\n"
            "        with self._b:\n"
            "            self.n += 1\n"
        )
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("LCK001", 12)]
        assert "without self._a" in findings[0].message

    def test_private_helper_runs_under_its_callers_lock(self):
        helper = (
            "    def locked(self):\n"
            "        with self._lock:\n"
            "            self._reset()\n"
            "    def _reset(self):\n"
            "        self.n = 0\n"
        )
        assert analyze_source("demo.py", LOCKED_COUNTER + helper) == []
        unlocked_caller = (
            "    def unlocked(self):\n"
            "        self._reset()\n"
        )
        findings = analyze_source(
            "demo.py", LOCKED_COUNTER + helper + unlocked_caller)
        assert ids_and_lines(findings) == [("LCK001", 13)]

    def test_public_method_is_not_inferred(self):
        source = LOCKED_COUNTER + (
            "    def locked(self):\n"
            "        with self._lock:\n"
            "            self.reset()\n"
            "    def reset(self):\n"
            "        self.n = 0\n"
        )
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("LCK001", 13)]

    def test_condition_counts_as_the_lock_it_wraps(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "        self._ready = threading.Condition(self._mutex)\n"
            "        self.n = 0\n"
            "    def by_mutex(self):\n"
            "        with self._mutex:\n"
            "            self.n += 1\n"
            "    def by_condition(self):\n"
            "        with self._ready:\n"
            "            self.n = 0\n"
            "    def unlocked(self):\n"
            "        self.n -= 1\n"
        )
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("LCK001", 14)]
        assert "without self._mutex" in findings[0].message


#: A lock-owning class whose one attribute is mutated under its lock
#: (lines 1-8); tests append methods from line 9 on.
LOCKED_COUNTER = (
    "import threading\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.n = 0\n"
    "    def bump(self):\n"
    "        with self._lock:\n"
    "            self.n += 1\n"
)


class TestClockRules:
    def test_violations(self):
        findings = findings_for("clock_violation.py")
        assert ids_and_lines(findings) == [
            ("CLK001", 9),
            ("CLK001", 13),
            ("CLK001", 17),
        ]
        assert "time.time" in findings[0].message
        assert "datetime.datetime.now" in findings[1].message
        assert "time.monotonic" in findings[2].message

    def test_clean_twin(self):
        assert findings_for("clock_clean.py") == []

    def test_clock_module_is_allowed(self):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        config = StaticcheckConfig(clock_allowed_paths=("*clock.py",))
        assert analyze_source("src/repro/clock.py", source, config) == []
        flagged = analyze_source("src/repro/other.py", source, config)
        assert [f.rule_id for f in flagged] == ["CLK001"]

    def test_import_alias_is_resolved(self):
        source = "import time as t\n\n\ndef now():\n    return t.time()\n"
        findings = analyze_source("demo.py", source)
        assert ids_and_lines(findings) == [("CLK001", 5)]


class TestExceptionRules:
    def test_violations(self):
        findings = findings_for("except_violation.py")
        assert ids_and_lines(findings) == [("EXC002", 7)]

    def test_clean_twin(self):
        assert findings_for("except_clean.py") == []

    def test_broad_except_outside_critical_path_is_allowed(self):
        source = (
            "def f(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except Exception:\n"
            "        return None\n"
        )
        config = StaticcheckConfig(critical_except_paths=("*daemon.py",))
        assert analyze_source("helper.py", source, config) == []
        flagged = analyze_source("core/daemon.py", source, config)
        assert [f.rule_id for f in flagged] == ["EXC002"]


class TestSuppression:
    def test_ignore_directives(self):
        findings = findings_for("ignore_suppression.py")
        assert ids_and_lines(findings) == [("CLK001", 15)]

    def test_unknown_directive_is_reported(self):
        with pytest.raises(AnnotationError):
            parse_annotations("x = 1  # staticcheck: sharde(_lock)\n")
        # A retired directive is unknown too: a leftover fails the gate.
        for retired in ("atomic(_mutex)", "shared(_lock)"):
            with pytest.raises(AnnotationError):
                parse_annotations(f"x = 1  # staticcheck: {retired}\n")

    def test_annotation_error_becomes_finding(self):
        findings = analyze_source(
            "demo.py", "x = 1  # staticcheck: sharde(_lock)\n")
        assert [f.rule_id for f in findings] == ["ANN"]

    def test_annotation_inside_string_is_not_parsed(self):
        annotations = parse_annotations(
            "x = '# staticcheck: guarded-by(_lock)'\n")
        assert annotations == {}


class TestReporters:
    def test_json_round_trip(self):
        """Every field of every finding is in the JSON report."""
        findings = findings_for("clock_violation.py")
        assert findings  # the report must carry real payload
        reported = json.loads(render_json(findings))["findings"]
        assert [(f["path"], f["line"], f["column"], f["rule_id"],
                 f["severity"], f["message"], f["trace"])
                for f in reported] == [
            (f.path, f.line, f.column, f.rule_id,
             f.severity.value, f.message, []) for f in findings]

    def test_text_report_carries_location_and_summary(self):
        findings = findings_for("lock_violation.py")
        text = render_text(findings)
        assert "lock_violation.py:13:" in text
        assert "LCK001" in text
        assert "3 findings" in text
        assert render_text([]) == "staticcheck: no findings"


class TestFramework:
    def test_all_rule_families_registered(self):
        families = {rule.rule_id[:3] for rule in all_rules()}
        assert {"LCK", "CLK", "EXC"} <= families

    def test_syntax_error_becomes_finding(self):
        findings = analyze_source("broken.py", "def f(:\n")
        assert [f.rule_id for f in findings] == ["PARSE"]
        assert findings[0].severity is Severity.ERROR
