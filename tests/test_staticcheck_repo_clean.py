"""The lint gate: ``src/repro`` must be clean under its own analyzer.

This is the enforcement half of the staticcheck subsystem — any rule
violation introduced anywhere in the library fails this test with the
full ``file:line: RULE message`` report, exactly like
``python -m repro.cli lint src/repro`` would.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from repro.staticcheck import (
    ProjectRule,
    StaticcheckConfig,
    all_deep_rules,
    analyze_paths,
    analyze_project,
    render_text,
)
from repro.staticcheck.driver import iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


class _KeepContext(ProjectRule):
    """Reports nothing; keeps the deep context the run built."""

    rule_id = "KEEP"

    def check_project(self, deep, config):
        self.deep = deep
        return []


@pytest.fixture(scope="module")
def deep_run():
    """One ``--deep`` run over the library: its findings and the deep
    context (project and lock flow) it judged them on."""
    keep = _KeepContext()
    findings = analyze_project([SRC], rules=[*all_deep_rules(), keep])
    return findings, keep.deep


def test_library_is_clean_under_staticcheck():
    findings = analyze_paths([SRC])
    assert findings == [], "\n" + render_text(findings)


def test_library_is_clean_under_deep_staticcheck(deep_run):
    """The interprocedural phase: no lock-order cycles, no blocking
    calls under a lock, no unbounded monitor containers, no sensor
    paths that scale with catalog size."""
    findings, _deep = deep_run
    assert findings == [], "\n" + render_text(findings)


def test_lock_order_graph_walks_through_blocking_calls(deep_run):
    """The daemon's poll holds ``_poll_mutex`` across SQL execution,
    which takes the engine's lock-manager mutex: the order graph must
    carry that edge, and the one into the daemon's state lock."""
    _findings, deep = deep_run
    edges = {(edge.held, edge.acquired) for edge in deep.lockflow.order_edges}
    poll_mutex = "repro.core.daemon.StorageDaemon._poll_mutex"
    assert (poll_mutex, "repro.engine.locks.LockManager._mutex") in edges
    assert (poll_mutex, "repro.core.daemon.StorageDaemon._lock") in edges


def test_every_scope_glob_matches_a_source_file():
    """A scope list names the modules a rule reports in; a glob that
    matches nothing (a renamed or deleted module) silently drops that
    module from the rule, and the gate stays green over less code."""
    config = StaticcheckConfig()
    sources = [str(path) for path in iter_python_files([SRC])]
    stale = [
        f"{field.name}: {pattern}"
        for field in dataclasses.fields(config)
        if field.name.endswith("_paths")
        for pattern in getattr(config, field.name)
        if not any(config.path_matches(source, (pattern,))
                   for source in sources)
    ]
    assert stale == []


def test_cli_lint_exits_zero_on_clean_tree():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "src/repro",
         "--skip-tools", "--deep"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "no findings" in completed.stdout


def test_cli_lint_exits_nonzero_on_violations():
    fixture = Path("tests") / "staticcheck_fixtures" / "clock_violation.py"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", str(fixture),
         "--skip-tools"],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 1
    assert "CLK001" in completed.stdout
    assert "clock_violation.py:9:" in completed.stdout
