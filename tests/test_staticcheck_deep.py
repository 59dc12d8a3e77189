"""Tests for the interprocedural (``--deep``) staticcheck phase.

Covers the call-graph builder, the three deep rule families against
clean/violation fixture pairs (pinning exact rule IDs and lines, like
the shallow-rule tests), the trace-carrying JSON schema, and the CLI
integration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import (
    Finding,
    Severity,
    StaticcheckConfig,
    TraceEntry,
    analyze_project,
    build_project,
    render_json,
)
from repro.staticcheck.cli import main as lint_main
from repro.staticcheck.driver import ModuleContext
from repro.staticcheck.lockflow import LockFlow

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"

DEEP_CONFIG = StaticcheckConfig(
    growth_scope_paths=("*growth_violation.py", "*growth_clean.py"),
)


CLI_SCOPE = {"growth_violation.py": "repro/core/daemon.py"}
"""Where the CLI test puts a fixture whose family reports only inside
a scope list: a path the default ``growth_scope_paths`` match."""


def deep_findings_for(name: str) -> list[Finding]:
    return analyze_project([FIXTURES / name], DEEP_CONFIG)


def ids_and_lines(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(f.rule_id, f.line) for f in findings]


class TestCallGraph:
    def _project(self, *sources: tuple[str, str]):
        modules = [ModuleContext.from_source(path, text)
                   for path, text in sources]
        return build_project(modules)

    def test_self_method_call_resolves(self):
        project = self._project(("src/repro/demo.py", (
            "class C:\n"
            "    def a(self):\n"
            "        self.b()\n"
            "    def b(self):\n"
            "        pass\n"
        )))
        edges = project.calls_from("repro.demo.C.a")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.demo.C.b", False)]

    def test_module_function_call_resolves(self):
        project = self._project(("src/repro/demo.py", (
            "def helper():\n"
            "    pass\n"
            "def entry():\n"
            "    helper()\n"
        )))
        edges = project.calls_from("repro.demo.entry")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.demo.helper", False)]

    def test_class_attribute_dispatch_resolves_across_modules(self):
        project = self._project(
            ("src/repro/disk.py", (
                "class Disk:\n"
                "    def read(self):\n"
                "        pass\n"
            )),
            ("src/repro/pool.py", (
                "from repro.disk import Disk\n"
                "class Pool:\n"
                "    def __init__(self):\n"
                "        self.disk = Disk()\n"
                "    def get(self):\n"
                "        self.disk.read()\n"
            )),
        )
        edges = project.calls_from("repro.pool.Pool.get")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.disk.Disk.read", False)]

    def test_external_receiver_produces_dotted_external_edge(self):
        project = self._project(("src/repro/demo.py", (
            "import queue\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.q = queue.Queue()\n"
            "    def take(self):\n"
            "        return self.q.get()\n"
        )))
        edges = project.calls_from("repro.demo.C.take")
        assert [(e.callee, e.external) for e in edges] == [
            ("queue.Queue.get", True)]

    def test_annotated_parameter_type_drives_dispatch(self):
        project = self._project(
            ("src/repro/disk.py", (
                "class Disk:\n"
                "    def write(self):\n"
                "        pass\n"
            )),
            ("src/repro/user.py", (
                "from repro.disk import Disk\n"
                "def flush(disk: 'Disk'):\n"
                "    disk.write()\n"
            )),
        )
        edges = project.calls_from("repro.user.flush")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.disk.Disk.write", False)]

    def test_bound_method_attributes_produce_call_edges(self):
        project = self._project(("src/repro/demo.py", (
            "class Sink:\n"
            "    def record(self):\n"
            "        pass\n"
            "class Driver:\n"
            "    def __init__(self, sink: Sink):\n"
            "        self._record = sink.record\n"
            "    def run(self):\n"
            "        self._record()\n"
        )))
        edges = project.calls_from("repro.demo.Driver.run")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.demo.Sink.record", False)]

    def test_chained_attribute_locals_type_through_each_hop(self):
        project = self._project(("src/repro/demo.py", (
            "class Sensors:\n"
            "    def fire(self):\n"
            "        pass\n"
            "class Engine:\n"
            "    def __init__(self, sensors: Sensors | None = None):\n"
            "        self.sensors = sensors or Sensors()\n"
            "class Session:\n"
            "    def __init__(self, engine: Engine):\n"
            "        self.engine = engine\n"
            "    def run(self):\n"
            "        sensors = self.engine.sensors\n"
            "        sensors.fire()\n"
        )))
        edges = project.calls_from("repro.demo.Session.run")
        assert [(e.callee, e.external) for e in edges] == [
            ("repro.demo.Sensors.fire", False)]


class TestEntryLocks:
    """The entry-locks fixpoint PRF005 reads: locks held at a
    function's entry on *every* internal call path."""

    def _entry_locks(self, source: str) -> dict[str, frozenset[str]]:
        module = ModuleContext.from_source("src/repro/demo.py", source)
        project = build_project([module])
        return LockFlow(project, StaticcheckConfig()).analyze().entry_locks

    def test_entry_locks_cover_helpers_called_under_lock(self):
        entry = self._entry_locks(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self._helper()\n"
            "    def _helper(self):\n"
            "        self.n += 1\n"
        )
        assert entry["repro.demo.C._helper"] == \
            frozenset({"repro.demo.C._lock"})

    def test_entry_locks_meet_over_disagreeing_callers(self):
        entry = self._entry_locks(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def locked_caller(self):\n"
            "        with self._lock:\n"
            "            self._helper()\n"
            "    def unlocked_caller(self):\n"
            "        self._helper()\n"
            "    def _helper(self):\n"
            "        pass\n"
        )
        assert entry["repro.demo.C._helper"] == frozenset()


class TestLockOrderRule:
    def test_violation(self):
        findings = deep_findings_for("lockorder_violation.py")
        assert ids_and_lines(findings) == [("LCK003", 13)]
        finding = findings[0]
        assert "lock-order cycle" in finding.message
        assert "Accounts._a" in finding.message
        assert "Accounts._b" in finding.message
        # The trace walks both conflicting acquisition paths.
        assert len(finding.trace) == 5
        assert [entry.line for entry in finding.trace] == [13, 14, 18, 19, 22]
        assert "calls" in finding.trace[3].note

    def test_clean_twin(self):
        assert deep_findings_for("lockorder_clean.py") == []


class TestLockOrderThroughBlockingCalls:
    """A blocking call under a lock is an LCK004 finding, and the walk
    goes on through it: locks the blocking callee takes are order
    edges too (SQL execution takes engine locks)."""

    def test_violation(self):
        findings = deep_findings_for("lockthrough_violation.py")
        assert ids_and_lines(findings) == [("LCK004", 20), ("LCK003", 29)]
        cycle = findings[1]
        assert "Poller._poll" in cycle.message
        assert "Session._latch" in cycle.message
        # The cycle closes through the blocking Session.execute call.
        assert [entry.line for entry in cycle.trace] == [29, 30, 14, 18,
                                                          20, 29]
        assert cycle.trace[1].note.endswith("Session.execute()")

    def test_clean_twin(self):
        assert deep_findings_for("lockthrough_clean.py") == []


class TestBlockingUnderLockRule:
    def test_violation(self):
        findings = deep_findings_for("blocking_violation.py")
        assert ids_and_lines(findings) == [("LCK004", 15)]
        finding = findings[0]
        assert "queue.Queue.get" in finding.message
        assert "Worker._lock" in finding.message
        # Interprocedural: acquisition -> call into _fetch -> the get().
        assert len(finding.trace) == 3
        assert finding.trace[0].note.startswith("acquires")
        assert finding.trace[-1].note == "calls queue.Queue.get()"

    def test_clean_twin(self):
        assert deep_findings_for("blocking_clean.py") == []


class TestUnboundedGrowthRule:
    def test_violation(self):
        findings = deep_findings_for("growth_violation.py")
        assert ids_and_lines(findings) == [
            ("GRW001", 14),
            ("GRW001", 15),
        ]
        assert "self._events" in findings[0].message
        assert "self._by_key" in findings[1].message
        # Trace pairs declaration with growth site.
        assert [entry.line for entry in findings[0].trace] == [9, 14]
        assert "declares container" in findings[0].trace[0].note

    def test_clean_twin(self):
        assert deep_findings_for("growth_clean.py") == []

    def test_bounded_annotation_is_the_difference(self):
        # The clean twin's _events only passes because of bounded();
        # the violation twin's identical append is flagged.
        violation = deep_findings_for("growth_violation.py")
        assert any("self._events" in f.message for f in violation)


class TestTraceSerialization:
    def test_trace_survives_json_round_trip(self):
        findings = deep_findings_for("blocking_violation.py")
        assert findings[0].trace  # non-trivial payload
        [reported] = json.loads(render_json(findings))["findings"]
        assert reported["trace"] == [
            {"path": e.path, "line": e.line,
             "function": e.function, "note": e.note}
            for e in findings[0].trace]

    def test_render_text_includes_numbered_trace(self):
        finding = Finding(
            path="a.py", line=3, column=0, rule_id="LCK004",
            severity=Severity.ERROR, message="blocked",
            trace=(
                TraceEntry("a.py", 2, "demo.C.m", "acquires demo.C._lock"),
                TraceEntry("a.py", 3, "demo.C.m", "calls time.sleep()"),
            ))
        rendered = finding.render()
        assert "    1. a.py:2: in demo.C.m: acquires demo.C._lock" in rendered
        assert "    2. a.py:3: in demo.C.m: calls time.sleep()" in rendered


class TestDeepCli:
    @pytest.mark.parametrize("fixture,rule_id,line", [
        ("lockorder_violation.py", "LCK003", 13),
        ("blocking_violation.py", "LCK004", 15),
        ("growth_violation.py", "GRW001", 14),
    ])
    def test_each_family_fails_the_cli_with_a_trace(self, capsys, tmp_path,
                                                    fixture, rule_id, line):
        """Every deep family: exit 1, pinned id+line, trace >= 2 in
        JSON.  The CLI runs the default config, so the scoped families
        see their fixture at a path the default scope lists name."""
        target = tmp_path / CLI_SCOPE.get(fixture, fixture)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((FIXTURES / fixture).read_text())
        code = lint_main([str(target), "--deep", "--format", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        matches = [f for f in report["findings"]
                   if f["rule_id"] == rule_id and f["line"] == line]
        assert matches, report["findings"]
        assert all(f["rule_id"] == rule_id for f in report["findings"])
        assert len(matches[0]["trace"]) >= 2

    def test_deep_flag_surfaces_interprocedural_findings(self, capsys):
        code = lint_main([str(FIXTURES / "blocking_violation.py"),
                          "--deep", "--skip-tools"])
        assert code == 1
        output = capsys.readouterr().out
        assert "LCK004" in output
        assert "acquires blocking_violation.Worker._lock" in output

    def test_without_deep_flag_fixture_is_clean(self, capsys):
        code = lint_main([str(FIXTURES / "blocking_violation.py"),
                          "--skip-tools"])
        assert code == 0

    def test_json_golden_schema_with_trace(self, capsys):
        """Pin the machine-readable schema of a deep finding."""
        code = lint_main([str(FIXTURES / "blocking_violation.py"),
                          "--deep", "--format", "json"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["findings", "version"]
        assert report["version"] == 7
        assert len(report["findings"]) == 1
        finding = report["findings"][0]
        assert sorted(finding) == [
            "column", "line", "message", "path", "rule_id",
            "severity", "trace",
        ]
        assert finding["rule_id"] == "LCK004"
        assert finding["line"] == 15
        assert finding["severity"] == "error"
        trace = finding["trace"]
        assert len(trace) >= 2
        for entry in trace:
            assert sorted(entry) == ["function", "line", "note", "path"]
        assert trace[0]["note"] == \
            "acquires blocking_violation.Worker._lock"
        assert trace[-1]["note"] == "calls queue.Queue.get()"


class TestDeepSuppression:
    def test_ignore_directive_silences_deep_finding(self, tmp_path):
        source = (FIXTURES / "growth_violation.py").read_text()
        source = source.replace(
            "self._by_key[key] = value",
            "self._by_key[key] = value  # staticcheck: ignore[GRW001]")
        target = tmp_path / "growth_violation.py"
        target.write_text(source)
        findings = analyze_project([target], DEEP_CONFIG)
        assert [f.rule_id for f in findings] == ["GRW001"]
        assert "_events" in findings[0].message
