"""Ablation — integrated sensors vs. the external watchdog baseline.

The paper's core design argument (sections I/IV): an in-core monitor
achieves *high data resolution* at *minimal overhead*, whereas a
watchdog sitting on top of the DBMS both loads the server with its own
queries and cannot see individual statements at all.  This ablation
quantifies the two axes on the same foreground workload.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.sensors import statement_key
from repro.core.watchdog import WatchdogMonitor
from repro.setups import monitoring_setup, original_setup
from repro.workloads import (
    WorkloadRunner,
    load_nref,
    simple_join_statements,
)

from conftest import BENCH_SCALE, format_table, write_result

FOREGROUND = simple_join_statements(1500, BENCH_SCALE)
WATCHDOG_INTERVAL = 0.2


def run_with_integrated_monitor():
    setup = monitoring_setup()
    setup.engine.create_database("nref")
    load_nref(setup.engine.database("nref"), BENCH_SCALE)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(FOREGROUND[:50])  # warmup
    report = runner.run(FOREGROUND)
    captured = {record.text_hash
                for record in setup.monitor.statements.values()}
    executions = setup.monitor.workload.total_appended
    return report.total_wallclock_s, captured, executions


def run_with_watchdog():
    setup = original_setup()
    setup.engine.create_database("nref")
    load_nref(setup.engine.database("nref"), BENCH_SCALE)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(FOREGROUND[:50])  # warmup
    watchdog = WatchdogMonitor(setup.engine, "nref",
                               sample_tables=("protein", "sequence"))
    stop = threading.Event()

    def poll_loop():
        while not stop.is_set():
            watchdog.poll_once()
            time.sleep(WATCHDOG_INTERVAL)

    thread = threading.Thread(target=poll_loop)
    thread.start()
    try:
        report = runner.run(FOREGROUND)
    finally:
        stop.set()
        thread.join()
        watchdog.close()
    return (report.total_wallclock_s,
            watchdog.report.statements_captured,
            len(watchdog.report.samples),
            watchdog.report.queries_issued)


def run_unmonitored():
    setup = original_setup()
    setup.engine.create_database("nref")
    load_nref(setup.engine.database("nref"), BENCH_SCALE)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(FOREGROUND[:50])  # warmup
    return runner.run(FOREGROUND).total_wallclock_s


def test_ablation_watchdog_vs_integrated(benchmark):
    base_s = run_unmonitored()
    integrated_s, captured, executions = benchmark.pedantic(
        run_with_integrated_monitor, rounds=1, iterations=1)
    watchdog_s, wd_statements, wd_samples, wd_queries = run_with_watchdog()

    table = format_table(
        ["approach", "runtime", "relative", "stmts captured",
         "executions logged"],
        [
            ["unmonitored", f"{base_s:.2f}s", "100%", "-", "-"],
            ["integrated", f"{integrated_s:.2f}s",
             f"{integrated_s / base_s * 100:.0f}%",
             str(len(captured)), str(executions)],
            ["watchdog", f"{watchdog_s:.2f}s",
             f"{watchdog_s / base_s * 100:.0f}%",
             str(wd_statements),
             f"({wd_samples} samples, {wd_queries} probe queries)"],
        ],
    )
    write_result("ablation_watchdog", table + (
        "\npaper's argument: in-core integration gives statement-level "
        "resolution at minimal overhead; a watchdog sees no statements "
        "and its probes are real server load"))

    # Shape assertions.
    # 1) the integrated monitor captured every statement of the
    #    workload.  It keys statements by shape (texts that differ only
    #    in literal values are one statement: the 1 500 join texts are
    #    one shape), so it is stated per shape, and per execution: one
    #    workload record each.
    assert {statement_key(text) for text in FOREGROUND} <= captured
    assert executions >= len(FOREGROUND)
    # 2) the watchdog captured no statements at all — the resolution gap.
    assert wd_statements == 0
    # 3) the watchdog's own probes put real query load on the server.
    assert wd_queries > 0
    # 4) integrated monitoring stays cheap on this workload.
    assert integrated_s < base_s * 1.35
