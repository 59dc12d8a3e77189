"""Section V-A in-text metrics.

The paper reports (beyond the figures):

* each monitoring function call takes ~1-2 microseconds,
* monitoring adds 30-70 microseconds per statement (vs <30 us of pure
  execution for the 1m statements),
* the daemon's logging rate is capped by buffer capacity / interval
  (default 1000 statements / 30 s ~ 33 statements/s): beyond that the
  daemon writes the same number of rows per interval no matter how fast
  the DBMS runs,
* the workload DB grows at a constant rate (~28 MB/hour) and retention
  caps it (~4.7 GB for seven days).
"""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.config import DaemonConfig, MonitorConfig
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.sensors import statement_key
from repro.execution.executor import ExecutionMetrics
from repro.setups import daemon_setup, original_setup
from repro.sql.parser import parse_statement
from repro.workloads import load_nref, point_query_statements
from repro.workloads.nref import NrefScale

from conftest import BENCH_SCALE, format_table, write_result


class TestSensorOverhead:
    def test_per_call_and_per_statement_overhead(self, benchmark):
        """Sensor calls are microseconds-scale; a statement passes
        through a handful of them."""
        monitor = IntegratedMonitor(MonitorConfig())
        sensors = MonitorSensors(monitor)
        statements = point_query_statements(2000, BENCH_SCALE,
                                            distinct_ids=50)
        # The plan the sensors record: one real optimizer result.
        setup = original_setup()
        load_nref(setup.engine.create_database("nref"),
                  NrefScale(proteins=50))
        optimized = setup.engine.connect("nref").optimizer.optimize_select(
            parse_statement(statements[0]))
        metrics = ExecutionMetrics(logical_reads=3, tuples_processed=5,
                                   rows_returned=1)

        def drive():
            for text in statements:
                ctx = sensors.statement_start(statement_key(text))
                sensors.parse_complete(ctx, "select", ("protein",))
                sensors.optimize_complete(ctx, optimized, 0.0)
                sensors.execute_complete(ctx, text, 0, metrics, 0.0005, 4.0,
                                         None)

        benchmark.pedantic(drive, rounds=3, iterations=1)
        per_call_us = monitor.average_sensor_call_s * 1e6
        per_statement_us = (monitor.sensor_time_s
                            / (len(statements) * 3)) * 1e6
        table = format_table(
            ["metric", "measured", "paper"],
            [["per sensor call", f"{per_call_us:.2f}us", "~1-2us"],
             ["added per statement", f"{per_statement_us:.2f}us",
              "30-70us"]],
        )
        write_result("text_sensor_overhead", table)
        # Shape: calls are microseconds, not milliseconds; the total per
        # statement stays within the same order of magnitude as the paper.
        assert per_call_us < 100.0
        assert per_statement_us < 400.0
        assert monitor.sensor_calls == len(statements) * 3 * 4


class TestDaemonLoggingRateCap:
    def test_rows_per_interval_capped_by_buffer(self, benchmark):
        """Past the buffer's capacity/interval rate, the daemon persists
        the same number of workload rows per poll no matter how many
        statements ran."""
        clock = VirtualClock(1_000_000.0)
        setup = daemon_setup(
            "db", clock=clock,
            daemon_config=DaemonConfig(poll_interval_s=30.0,
                                       flush_every_polls=1))
        # shrink the workload window to make the cap easy to exceed
        setup.monitor.workload.capacity = 200
        setup.monitor.workload._items = []
        session = setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1)")

        persisted = []

        def one_round():
            # 500 executions between polls >> the 200-entry window
            before = setup.workload_db.row_count("wl_workload")
            for i in range(500):
                session.execute(f"select a from t where a = {i % 7}")
                clock.advance(0.01)
            setup.daemon.poll_once()
            persisted.append(
                setup.workload_db.row_count("wl_workload") - before)
            clock.advance(30.0)

        benchmark.pedantic(one_round, rounds=3, iterations=1)
        # every poll persisted (roughly) one full buffer, not 500 rows
        for rows in persisted:
            assert rows <= 230
        assert setup.monitor.workload.dropped > 0
        write_result("text_daemon_rate_cap", (
            f"workload rows persisted per 30s poll with a 200-entry "
            f"buffer and 500 stmts/interval: {persisted}\n"
            f"paper: at >1000 stmts/s the daemon always writes the same "
            f"amount of rows per interval"))


class TestWorkloadDbGrowthAndRetention:
    def test_growth_is_linear_and_retention_caps_it(self, benchmark):
        clock = VirtualClock(1_000_000.0)
        setup = daemon_setup(
            "db", clock=clock,
            daemon_config=DaemonConfig(poll_interval_s=30.0,
                                       flush_every_polls=1,
                                       retention_s=3600.0))
        session = setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1)")

        sizes = []
        polls_per_hour = 120

        def simulate_one_hour(hour):
            for _ in range(polls_per_hour):
                session.execute(f"select a from t where a = {hour}")
                clock.advance(30.0)
                setup.daemon.poll_once()
            sizes.append(setup.workload_db.total_bytes)

        benchmark.pedantic(simulate_one_hour, args=(0,),
                           rounds=1, iterations=1)
        for hour in range(1, 4):
            simulate_one_hour(hour)
        # steady state: retention is 1h, so from hour 2 on the purge
        # offsets the appends and compaction reclaims the pages.
        growth = [b - a for a, b in zip(sizes, sizes[1:])]
        table = format_table(
            ["hour", "workload DB bytes"],
            [[str(i + 1), f"{size:,}"] for i, size in enumerate(sizes)],
        )
        write_result("text_workloaddb_growth", table + (
            "\npaper: ~28MB/hour growth, capped at ~4.7GB by 7-day "
            "retention (here: 1h retention at reduced rate)"))
        # growth happens in hour 1..2, then retention caps the size:
        # the last hour grows far less than the first (deletes offset
        # inserts once history ages out).
        assert sizes[0] > 0
        assert growth[-1] < sizes[0] * 0.5
        # retention actually deleted rows
        assert setup.daemon.total_rows_purged > 0


class TestAnalysisDuration:
    def test_analysis_time_bounded(self, benchmark):
        """Paper: 'the analysis took about 40 seconds' for 50
        statements — ours must stay in the same ballpark (it is pure
        in-memory work at this scale)."""
        from repro.core.analyzer import Analyzer
        from repro.workloads import WorkloadRunner, complex_query_set

        setup = daemon_setup("nref")
        load_nref(setup.engine.database("nref"), NrefScale(proteins=800))
        session = setup.engine.connect("nref")
        WorkloadRunner(session, keep_per_statement=False).run(
            complex_query_set(NrefScale(proteins=800), count=50))
        setup.daemon.poll_once()
        setup.daemon.flush()
        analyzer = Analyzer(setup.engine.database("nref"))
        report = benchmark.pedantic(
            lambda: analyzer.analyze_workload_db(setup.workload_db),
            rounds=1, iterations=1)
        assert report.duration_s < 40.0
        # The analysis covers (nearly) the whole workload.  Statements
        # are keyed by shape, which folds the 50 queries into a dozen
        # templates, so coverage is counted in executions.
        assert sum(profile.executions
                   for profile in report.view.statements.values()) >= 45
