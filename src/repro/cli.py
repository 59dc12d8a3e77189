"""Interactive SQL + monitoring shell.

``python -m repro.cli`` starts a monitored engine with a storage daemon
and drops into a shell that accepts SQL plus backslash commands for the
monitoring/tuning side:

.. code-block:: text

    repro> create table t (a int not null, primary key (a));
    repro> insert into t values (1), (2);
    repro> select * from t;
    repro> \\monitor           -- recent statements seen by the monitor
    repro> \\analyze           -- run the analyzer, show the report
    repro> \\autopilot         -- one autonomous tuning cycle
    repro> \\load nref 1000    -- load the synthetic NREF database

The command handling lives in :class:`Shell` (one method per command,
returning plain text) so it is scriptable and testable without a TTY.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Callable

from repro import faultsim
from repro.core.autopilot import AutonomousTuner
from repro.core.alerts import fired_alerts, install_standard_alerts
from repro.core.analyzer import Analyzer
from repro.core.health import WorkerStatus
from repro.engine.session import DmlResult
from repro.errors import FaultError, ReproError
from repro.execution.executor import QueryResult
from repro.setups import attach_supervisor, daemon_setup
from repro.workloads import NrefScale, load_nref


def format_rows(columns: tuple[str, ...], rows: list[tuple],
                max_rows: int = 50) -> str:
    """Render a result set as an aligned text table."""
    if not rows:
        return "(0 rows)"
    shown = [tuple(_render_value(v) for v in row) for row in rows[:max_rows]]
    widths = [len(c) for c in columns]
    for row in shown:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(c.ljust(widths[i]) for i, c in enumerate(columns)),
        "-+-".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines += [" | ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row)) for row in shown]
    suffix = f"({len(rows)} rows)"
    if len(rows) > max_rows:
        suffix = f"({len(rows)} rows, first {max_rows} shown)"
    lines.append(suffix)
    return "\n".join(lines)


def _render_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _stamp(value: float | None) -> str:
    return f"{value:.1f}" if value is not None else "never"


def _worker_lines(status: WorkerStatus, cycles: str, failures: str,
                  *body: str) -> list[str]:
    """A background worker's status lines around its owner's ``body``."""
    return [
        f"  running: {status.running}",
        f"  {cycles}: {status.cycles}",
        f"  {failures}: {status.failures} "
        f"(consecutive: {status.consecutive_failures}, "
        f"backoff: {status.backoff_s:g}s)",
        f"  last error: {status.last_error or '-'}",
        *body,
        f"  restarts: {status.restarts}, "
        f"last heartbeat: {_stamp(status.last_heartbeat)}",
    ]


class Shell:
    """The scriptable command processor behind the REPL."""

    def __init__(self, database_name: str = "shell") -> None:
        self.setup = daemon_setup(database_name)
        self.database_name = database_name
        self.session = self.setup.engine.connect(database_name)
        install_standard_alerts(self.setup.workload_db)
        self.tuner = AutonomousTuner(
            self.setup.engine, database_name, self.setup.workload_db,
            daemon=self.setup.daemon)
        attach_supervisor(self.setup, tuner=self.tuner)
        self._commands: dict[str, Callable[[str], str]] = {
            "help": self.cmd_help,
            "tables": self.cmd_tables,
            "explain": self.cmd_explain,
            "monitor": self.cmd_monitor,
            "stats": self.cmd_stats,
            "daemon": self.cmd_daemon,
            "health": self.cmd_health,
            "fault": self.cmd_fault,
            "alerts": self.cmd_alerts,
            "analyze": self.cmd_analyze,
            "autopilot": self.cmd_autopilot,
            "tuner": self.cmd_tuner,
            "load": self.cmd_load,
        }

    # -- dispatch ----------------------------------------------------------

    def handle(self, line: str) -> str:
        """Process one input line; returns the text to display."""
        line = line.strip().rstrip(";").strip()
        if not line:
            return ""
        if line.startswith("\\"):
            name, _, argument = line[1:].partition(" ")
            command = self._commands.get(name.lower())
            if command is None:
                return (f"unknown command \\{name}; "
                        f"try \\help")
            try:
                return command(argument.strip())
            except (ReproError, OSError, ValueError) as error:
                return f"error: {error}"
        try:
            result = self.session.execute(line)
        except ReproError as error:
            return f"error: {error}"
        if isinstance(result, QueryResult):
            return format_rows(result.columns, result.rows)
        if isinstance(result, DmlResult):
            detail = f" {result.detail}" if result.detail else ""
            count = f" ({result.rowcount} rows)" if result.rowcount else ""
            return f"{result.kind}{detail}{count}"
        return str(result)

    # -- commands ------------------------------------------------------------

    def cmd_help(self, _argument: str) -> str:
        return "\n".join([
            "SQL statements are executed directly.  Commands:",
            "  \\tables              list tables with structure/geometry",
            "  \\explain <select>    show the optimizer's plan",
            "  \\monitor             recent statements seen by the monitor",
            "  \\stats               engine-wide statistics",
            "  \\daemon [status]     poll + flush the daemon / health snapshot",
            "  \\health              engine-wide health (ladder, daemon, supervisor)",
            "  \\fault ...           arm/disarm/inspect failure injection",
            "  \\alerts              alerts fired so far",
            "  \\analyze             run the analyzer on the workload DB",
            "  \\autopilot [dry]     one autonomous tuning cycle",
            "  \\tuner status        tuner health: cycles, quarantine, journal",
            "  \\load nref [n]       load the synthetic NREF database",
            "  \\quit                leave",
        ])

    def cmd_tables(self, _argument: str) -> str:
        database = self.setup.engine.database(self.database_name)
        rows = []
        for entry in database.catalog.tables():
            if entry.is_virtual:
                rows.append((entry.schema.name, "virtual", "-", "-", "-"))
                continue
            storage = database.storage_for(entry.schema.name)
            rows.append((
                entry.schema.name, entry.structure.value,
                str(storage.row_count), str(storage.page_count),
                str(storage.overflow_page_count),
            ))
        return format_rows(
            ("table", "structure", "rows", "pages", "overflow"), rows)

    def cmd_explain(self, argument: str) -> str:
        if not argument:
            return "usage: \\explain <select statement>"
        return self.session.explain(argument)

    def cmd_monitor(self, _argument: str) -> str:
        monitor = self.setup.monitor
        records = monitor.statements.values()[-15:]
        rows = [(str(r.frequency), r.text[:70]) for r in records]
        header = (f"{len(monitor.statements)} distinct statements in the "
                  f"window; {monitor.workload.total_appended} executions "
                  f"logged\n")
        return header + format_rows(("freq", "statement"), rows)

    def cmd_stats(self, _argument: str) -> str:
        stats = self.setup.engine.system_statistics()
        return "\n".join(f"  {key}: {value}"
                         for key, value in stats.items())

    def cmd_daemon(self, argument: str) -> str:
        if argument.lower() == "status":
            status = self.setup.daemon.status()
            return "\n".join(_worker_lines(
                status, "total polls", "poll failures",
                f"  pending rows: {status.pending_rows} "
                f"(dropped: {status.rows_dropped})",
                f"  rows flushed: {status.total_rows_flushed}, "
                f"purged: {status.total_rows_purged}",
                f"  last flush at: {_stamp(status.last_flush_at)}"))
        poll = self.setup.daemon.poll_once()
        written, purged = self.setup.daemon.flush()
        return (f"collected {poll.rows_collected} rows; wrote {written}, "
                f"purged {purged}; workload DB now "
                f"{self.setup.workload_db.total_rows()} rows "
                f"({self.setup.workload_db.total_bytes / 1024:.0f} KiB)")

    def cmd_health(self, _argument: str) -> str:
        """The engine-wide health snapshot, pretty-printed as JSON."""
        return json.dumps(self.setup.health(), indent=2,
                          sort_keys=True, default=str)

    def cmd_fault(self, argument: str) -> str:
        usage = ("usage: \\fault arm <point>:<mode>[,k=v...] | "
                 "\\fault disarm <point> | \\fault reset | "
                 "\\fault status | \\fault points")
        action, _, rest = argument.partition(" ")
        action = action.lower()
        rest = rest.strip()
        injector = faultsim.get_injector()
        if action == "arm":
            if not rest:
                return usage
            faultsim.arm_from_spec(rest, clock=self.setup.engine.clock)
            return f"armed {rest}"
        if action == "disarm":
            if not rest:
                return usage
            injector.disarm(rest)
            return f"disarmed {rest}"
        if action == "reset":
            injector.reset()
            return "all failure points disarmed, counters cleared"
        if action == "status":
            stats = injector.stats()
            if not stats:
                return "(no failure point has been armed)"
            rows = [(s.point, s.armed or "-", str(s.evaluations),
                     str(s.triggers), str(s.errors_raised),
                     f"{s.latency_injected_s:g}", f"{s.jumps_injected_s:g}")
                    for s in stats]
            return format_rows(
                ("point", "armed", "evals", "triggers", "errors",
                 "latency_s", "jumps_s"), rows)
        if action == "points":
            return "\n".join(f"  {point}" for point in faultsim.FAIL_POINTS)
        return usage

    def cmd_alerts(self, _argument: str) -> str:
        alerts = fired_alerts(self.setup.workload_db)
        if not alerts:
            return "(no alerts fired)"
        return "\n".join(
            f"  [{alert.trigger_name}] {alert.message}"
            for alert in alerts[-20:]
        )

    def cmd_analyze(self, _argument: str) -> str:
        self.setup.daemon.poll_once()
        self.setup.daemon.flush()
        analyzer = Analyzer(self.setup.engine.database(self.database_name))
        report = analyzer.analyze_workload_db(self.setup.workload_db)
        return report.render_text()

    def cmd_autopilot(self, argument: str) -> str:
        if argument.lower() != "dry":
            return self.tuner.run_cycle().describe()
        policy = self.tuner.policy
        self.tuner.policy = replace(policy, dry_run=True)
        try:
            return self.tuner.run_cycle().describe()
        finally:
            self.tuner.policy = policy

    def cmd_tuner(self, argument: str) -> str:
        if argument.lower() not in ("", "status"):
            return "usage: \\tuner status"
        status = self.tuner.status()
        journal = status.journal
        lines = _worker_lines(
            status, "cycles run", "cycle failures",
            f"  changes applied: {status.changes_applied}",
            f"  journal: {journal.entries} entries "
            f"(intent: {journal.intent}, applied: {journal.applied}, "
            f"failed: {journal.failed}, rolled back: {journal.rolled_back})",
            f"  journal writes: {journal.transitions} "
            f"(failures: {journal.write_failures}, "
            f"pruned: {journal.entries_pruned}, "
            f"last at: {_stamp(journal.last_write_at)})")
        if status.quarantined:
            rows = [(q.sql[:48], str(q.failures),
                     f"{q.cooldown_remaining_s:.0f}",
                     (q.last_error[:40] or "-"))
                    for q in status.quarantined]
            lines.append("  quarantined:")
            lines.append(format_rows(
                ("statement", "failures", "cooldown_s", "last error"), rows))
        else:
            lines.append("  quarantined: (none)")
        return "\n".join(lines)

    def cmd_load(self, argument: str) -> str:
        parts = argument.split()
        if not parts or parts[0].lower() != "nref":
            return "usage: \\load nref [proteins]"
        proteins = int(parts[1]) if len(parts) > 1 else 1000
        database = self.setup.engine.database(self.database_name)
        counts = load_nref(database, NrefScale(proteins=proteins))
        total = sum(counts.values())
        return (f"loaded {total:,} rows into {len(counts)} tables "
                f"({database.total_bytes / 1e6:.1f} MB)")

    def close(self) -> None:
        self.session.close()


def repl(shell: Shell, stdin=None, stdout=None) -> None:
    """Line-oriented read-eval-print loop."""
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stdout.write("repro shell — \\help for commands, \\quit to exit\n")
    while True:
        stdout.write("repro> ")
        stdout.flush()
        line = stdin.readline()
        if not line or line.strip().lower() in ("\\quit", "\\q", "exit"):
            stdout.write("bye\n")
            return
        output = shell.handle(line)
        if output:
            stdout.write(output + "\n")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # `repro lint [paths]` — static analysis entry point; imported
        # lazily so the shell never pays for the analyzer.
        from repro.staticcheck.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "chaos":
        # `repro chaos [--seeds ...]` — the crash/recovery soak harness;
        # also imported lazily.
        from repro.chaos import main as chaos_main
        return chaos_main(argv[1:])
    if argv and argv[0] == "drive":
        # `repro drive [...]` — the multi-session traffic driver with
        # its end-to-end persistence invariant checks.
        from repro.workloads.driver import main as drive_main
        return drive_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-shell",
        description="SQL + monitoring shell over the repro engine "
                    "(use `lint` as the first argument for static "
                    "analysis, `chaos` for the crash-recovery soak, "
                    "`drive` for the multi-session traffic driver)")
    parser.add_argument("--database", default="shell",
                        help="database name to create and connect to")
    parser.add_argument("--execute", action="append", default=[],
                        metavar="SQL",
                        help="run a statement/command and exit "
                             "(repeatable)")
    parser.add_argument("--fault", action="append", default=[],
                        metavar="SPEC",
                        help="arm a failure point, e.g. "
                             "'disk.read:every-n=10', "
                             "'session.execute:p=0.05,seed=7,latency=0.2' "
                             "or 'ddl.apply:once' to fail the tuner's "
                             "next change (also: analyzer.scan, "
                             "journal.write; repeatable; "
                             "see \\fault points)")
    arguments = parser.parse_args(argv)
    shell = Shell(arguments.database)
    for spec in arguments.fault:
        try:
            faultsim.arm_from_spec(spec, clock=shell.setup.engine.clock)
        except (FaultError, ValueError) as error:
            print(f"error: bad --fault {spec!r}: {error}", file=sys.stderr)
            shell.close()
            return 2
    try:
        if arguments.execute:
            for statement in arguments.execute:
                output = shell.handle(statement)
                if output:
                    print(output)
            return 0
        repl(shell)
        return 0
    finally:
        shell.close()


if __name__ == "__main__":
    sys.exit(main())
