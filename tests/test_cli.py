"""Tests for the interactive shell (driven programmatically)."""

import io

import pytest

from repro import faultsim
from repro.cli import Shell, format_rows, main, repl
from repro.core.autopilot import TuningPolicy


@pytest.fixture
def shell():
    instance = Shell("clidb")
    yield instance
    instance.close()


class TestFormatRows:
    def test_alignment_and_count(self):
        text = format_rows(("a", "long_column"), [(1, "x"), (22, "yy")])
        lines = text.splitlines()
        assert "a" in lines[0] and "long_column" in lines[0]
        assert "(2 rows)" in lines[-1]

    def test_empty(self):
        assert format_rows(("a",), []) == "(0 rows)"

    def test_truncation(self):
        text = format_rows(("a",), [(i,) for i in range(100)], max_rows=5)
        assert "first 5 shown" in text

    def test_null_and_float_rendering(self):
        text = format_rows(("a", "b"), [(None, 1.23456789)])
        assert "NULL" in text
        assert "1.235" in text


class TestShellSql:
    def test_ddl_dml_select_round_trip(self, shell):
        assert "create table" in shell.handle(
            "create table t (a int not null, primary key (a))")
        assert "(2 rows)" in shell.handle("insert into t values (1), (2)") \
            or "insert" in shell.handle("select 1")
        output = shell.handle("select * from t order by a")
        assert "1" in output and "(2 rows)" in output

    def test_sql_error_reported_not_raised(self, shell):
        output = shell.handle("select * from missing_table")
        assert output.startswith("error:")

    def test_empty_line(self, shell):
        assert shell.handle("   ") == ""

    def test_trailing_semicolon_stripped(self, shell):
        assert "(1 rows)" in shell.handle("select 1;")


class TestShellCommands:
    def test_help_lists_commands(self, shell):
        text = shell.handle("\\help")
        for name in ("\\tables", "\\analyze", "\\autopilot", "\\monitor"):
            assert name in text

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.handle("\\bogus")

    def test_tables(self, shell):
        shell.handle("create table t (a int)")
        text = shell.handle("\\tables")
        assert "t" in text
        assert "heap" in text
        assert "ima_statements" in text  # IMA virtual tables listed

    def test_explain(self, shell):
        shell.handle("create table t (a int)")
        text = shell.handle("\\explain select a from t")
        assert "SeqScan" in text
        assert "usage" in shell.handle("\\explain")

    def test_monitor_shows_statements(self, shell):
        shell.handle("create table t (a int)")
        shell.handle("select a from t")
        text = shell.handle("\\monitor")
        assert "select a from t" in text

    def test_stats(self, shell):
        assert "locks_held" in shell.handle("\\stats")

    def test_daemon_and_alerts(self, shell):
        shell.handle("create table t (a int)")
        shell.handle("select a from t")
        text = shell.handle("\\daemon")
        assert "collected" in text
        assert shell.setup.workload_db.total_rows() > 0
        alerts = shell.handle("\\alerts")
        assert "alert" in alerts or "no alerts" in alerts

    def test_load_and_analyze(self, shell):
        assert "loaded" in shell.handle("\\load nref 100")
        shell.handle("select count(*) from protein where tax_id = 1")
        text = shell.handle("\\analyze")
        assert "ANALYZER REPORT" in text

    def test_load_usage(self, shell):
        assert "usage" in shell.handle("\\load")

    def test_autopilot_dry(self, shell):
        shell.handle("\\load nref 100")
        shell.handle("select count(*) from protein where tax_id = 2")
        text = shell.handle("\\autopilot dry")
        assert "dry run" in text

    def test_tuner_status(self, shell):
        shell.handle("\\load nref 100")
        shell.handle("select count(*) from protein where tax_id = 3")
        shell.handle("\\autopilot")
        text = shell.handle("\\tuner status")
        assert "cycles run: 1" in text
        assert "journal:" in text
        assert "quarantined: (none)" in text
        assert "usage" in shell.handle("\\tuner bogus")

    def test_fault(self, shell):
        points = shell.handle("\\fault points").split()
        assert points == list(faultsim.FAIL_POINTS)
        assert shell.handle("\\fault status") == \
            "(no failure point has been armed)"
        assert shell.handle("\\fault arm analyzer.scan:once") == \
            "armed analyzer.scan:once"
        header, _rule, row, count = shell.handle(
            "\\fault status").splitlines()
        assert [cell.strip() for cell in header.split("|")] == [
            "point", "armed", "evals", "triggers", "errors", "latency_s",
            "jumps_s"]
        assert [cell.strip() for cell in row.split("|")] == [
            "analyzer.scan", "once", "0", "0", "0", "0", "0"]
        assert count == "(1 rows)"
        assert shell.handle("\\fault disarm analyzer.scan") == \
            "disarmed analyzer.scan"
        assert "ANALYZER REPORT" in shell.handle("\\analyze")
        assert shell.handle("\\fault reset") == \
            "all failure points disarmed, counters cleared"
        assert faultsim.get_injector().stats() == ()
        usage = shell.handle("\\fault bogus")
        assert usage.startswith("usage: \\fault arm")
        assert shell.handle("\\fault arm") == usage
        assert shell.handle("\\fault disarm") == usage


class TestCommandErrors:
    """A command that raises replies ``error: ...``; the shell lives on."""

    def test_failed_dry_autopilot_leaves_the_policy_alone(self, shell):
        custom = TuningPolicy(max_changes_per_cycle=2)
        shell.tuner.policy = custom
        faultsim.arm_from_spec("analyzer.scan:once")
        text = shell.handle("\\autopilot dry")
        assert text.startswith("error: injected fault at analyzer.scan")
        assert shell.tuner.policy == custom
        assert not shell.tuner.policy.dry_run
        assert "(live)" in shell.handle("\\autopilot")

    def test_dry_autopilot_keeps_a_custom_policy(self, shell):
        custom = TuningPolicy(max_changes_per_cycle=2)
        shell.tuner.policy = custom
        assert "dry run" in shell.handle("\\autopilot dry")
        assert shell.tuner.policy == custom

    def test_analyze_fault(self, shell):
        faultsim.arm_from_spec("analyzer.scan:once")
        assert shell.handle("\\analyze").startswith(
            "error: injected fault at analyzer.scan")
        assert "ANALYZER REPORT" in shell.handle("\\analyze")

    def test_load_with_a_bad_count(self, shell):
        assert shell.handle("\\load nref abc").startswith("error: ")

    def test_main_survives_a_faulted_autopilot(self, capsys):
        code = main(["--database", "faultdb",
                     "--fault", "analyzer.scan:once",
                     "--execute", "\\autopilot dry",
                     "--execute", "\\autopilot",
                     "--execute", "\\tuner status"])
        assert code == 0
        out = capsys.readouterr().out
        assert "error: injected fault at analyzer.scan" in out
        assert "cycle failures: 1" in out


class TestReplAndMain:
    def test_repl_quits(self):
        shell = Shell("repl1")
        stdin = io.StringIO("select 1;\n\\quit\n")
        stdout = io.StringIO()
        repl(shell, stdin=stdin, stdout=stdout)
        shell.close()
        output = stdout.getvalue()
        assert "repro>" in output
        assert "(1 rows)" in output
        assert "bye" in output

    def test_repl_eof(self):
        shell = Shell("repl2")
        stdout = io.StringIO()
        repl(shell, stdin=io.StringIO(""), stdout=stdout)
        shell.close()
        assert "bye" in stdout.getvalue()

    def test_main_execute_mode(self, capsys):
        code = main(["--database", "maindb",
                     "--execute", "create table t (a int)",
                     "--execute", "insert into t values (7)",
                     "--execute", "select a from t"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "7" in captured
