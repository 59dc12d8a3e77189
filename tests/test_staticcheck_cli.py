"""In-process tests of the ``repro lint`` command line."""

from __future__ import annotations

import json
from pathlib import Path

from repro.staticcheck import all_deep_rules, all_rules
from repro.staticcheck.cli import main as lint_main

FIXTURES = Path(__file__).parent / "staticcheck_fixtures"


def test_lint_clean_path_exits_zero(capsys):
    code = lint_main([str(FIXTURES / "clock_clean.py"), "--skip-tools"])
    assert code == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_violations_exit_nonzero_with_locations(capsys):
    code = lint_main([str(FIXTURES / "clock_violation.py"),
                      "--skip-tools"])
    assert code == 1
    output = capsys.readouterr().out
    assert "CLK001" in output
    assert "clock_violation.py:9:" in output


def test_lint_json_format_is_machine_readable(capsys):
    code = lint_main([str(FIXTURES / "clock_violation.py"),
                      "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 7
    rule_ids = [finding["rule_id"] for finding in report["findings"]]
    assert rule_ids == ["CLK001", "CLK001", "CLK001"]


def test_lint_missing_path_is_usage_error(capsys):
    code = lint_main(["does/not/exist.py"])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_all_families(capsys):
    """``--list-rules`` lists exactly the registered rules: the eleven
    that each catch a seeded defect nothing else in the suite catches
    (``test_staticcheck_mutations``)."""
    code = lint_main(["--list-rules"])
    assert code == 0
    output = capsys.readouterr().out
    listed = [line.split()[0] for line in output.splitlines()
              if line[:3].isupper() and line[3:6].isdigit()]
    registered = sorted(rule.rule_id
                        for rule in (*all_rules(), *all_deep_rules()))
    assert sorted(listed) == registered == [
        "CLK001", "EXC002", "GRW001", "LCK001", "LCK003", "LCK004",
        "PRF001", "PRF002", "PRF003", "PRF004", "PRF005"]
    assert "[deep]" in output
    # The waiver every LCK004 site in the library uses (lock flow reads
    # no coldpath marker).
    assert ("waiver: ignore[LCK004] on the call line that reaches the "
            "blocking callee") in output
    assert ("directives: guarded-by, bounded, hotpath, coldpath, "
            "allocfree, ignore") in output
