"""Figure 5 — Share of Monitoring in total statement time.

Paper result: for the 50 complex queries the monitoring share is
negligible; for the 1m trivial statement the first (cold) execution has
a tiny share, and as the DBMS caches make execution nearly free the
share climbs to ~90 % by the 1000th and ~98 % by the 100,000th
repetition, because monitoring time stays constant while execution
time collapses.

Reproduced shape: the share is (a) far smaller for complex queries than
for trivial repeated ones, and (b) grows from the cold first execution
to the warm steady state.  The absolute ~98 % is out of reach here —
the substrate's per-statement baseline (Python parse/optimize) is
orders of magnitude heavier than compiled Ingres — which is exactly the
"lower boundary of execution time" effect the paper describes, just
with a different constant.  See EXPERIMENTS.md, "Figure 5".
"""

from __future__ import annotations

import pytest

from repro.core.ima import WORKLOAD
from repro.setups import monitoring_setup
from repro.workloads import WorkloadRunner, complex_query_set, load_nref
from repro.workloads.nref import nref_id

from conftest import BENCH_SCALE, format_table, write_result

TRIVIAL = f"select p.nref_id from protein p where p.nref_id = '{nref_id(7)}'"
REPEATS = 4000
CHECKPOINTS = (1, 2, 10, 100, 1000, REPEATS)


@pytest.fixture(scope="module")
def setup():
    setup = monitoring_setup()
    setup.engine.create_database("nref")
    load_nref(setup.engine.database("nref"), BENCH_SCALE)
    # The paper's base configuration uses primary keys: give protein a
    # keyed structure so the trivial point query is a keyed lookup.
    session = setup.engine.connect("nref")
    session.execute("modify protein to btree")
    session.close()
    return setup


def last_record(monitor) -> tuple:
    """The newest execution in the monitor's workload ring."""
    return WORKLOAD.record._make(monitor.workload.values()[-1])


def monitor_share(record) -> float:
    if record.wallclock_s <= 0:
        return 0.0
    return record.monitor_time_s / record.wallclock_s


def test_fig5_monitoring_share(setup, benchmark):
    session = setup.engine.connect("nref")
    monitor = setup.monitor

    # Part 1: the first five complex queries.
    complex_rows = []
    for i, query in enumerate(complex_query_set(BENCH_SCALE, count=5),
                              start=1):
        session.execute(query)
        record = last_record(monitor)
        complex_rows.append(
            [f"Q{i}", f"{record.wallclock_s * 1e3:8.2f}ms",
             f"{record.monitor_time_s * 1e6:8.1f}us",
             f"{monitor_share(record) * 100:6.2f}%"])
    complex_shares = [
        float(row[3].rstrip("%")) / 100 for row in complex_rows]

    # Part 2: the trivial statement repeated REPEATS times.  The first
    # execution runs against a cold cache ("the DBMS needs to initialize
    # its caches and read catalog information from disk"), so its share
    # of monitoring is small; caching then collapses execution time
    # while monitoring stays constant.
    setup.engine.database("nref").pool.clear()
    shares_at: dict[int, float] = {}
    runner = WorkloadRunner(session, keep_per_statement=False)

    def run_trivia():
        for i in range(1, REPEATS + 1):
            session.execute(TRIVIAL)
            if i in CHECKPOINTS:
                record = last_record(monitor)
                shares_at[i] = monitor_share(record)

    benchmark.pedantic(run_trivia, rounds=1, iterations=1)

    trivial_rows = [
        [f"execution #{i}", f"{shares_at[i] * 100:6.2f}%"]
        for i in CHECKPOINTS
    ]
    table = (
        "first five complex queries (share of monitoring):\n"
        + format_table(["query", "wallclock", "monitor", "share"],
                       complex_rows)
        + "\n\nrepeated trivial statement (share of monitoring):\n"
        + format_table(["checkpoint", "share"], trivial_rows)
        + f"\n\navg sensor call: "
          f"{monitor.average_sensor_call_s * 1e6:.2f}us over "
          f"{monitor.sensor_calls} calls"
        + "\npaper: complex -> negligible; trivial -> ~90% at #1000, "
          "~98% at #100000"
    )
    write_result("fig5_monitoring_share", table)

    # Shape assertions.
    steady = shares_at[REPEATS]
    # 1) complex queries: monitoring share is negligible (paper: <<1 %).
    assert max(complex_shares) < 0.10
    # 2) trivial repeated statements have a much larger monitoring share
    #    than complex ones.
    assert steady > max(complex_shares)
    # 3) the share grows from the cold first execution (caches empty,
    #    catalog reads from disk) to the warm steady state.
    assert steady >= shares_at[1]
    # 4) monitoring time per statement is roughly constant: its absolute
    #    cost at steady state stays microseconds-scale.
    last = last_record(setup.monitor)
    assert last.monitor_time_s < 1e-3
