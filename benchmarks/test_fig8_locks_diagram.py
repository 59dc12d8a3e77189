"""Figure 8 — Locks Diagram: lock usage over time with wait and
deadlock indicators.

The paper visualizes the locking system's statistics — locks in use,
lock-wait events and deadlocks — "to help the DBA identifying
problems".  We drive a multi-session contention workload (readers,
writers, and a deliberately deadlock-prone transaction pair), sample
the lock statistics continuously, and render the same strip chart.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.analyzer.reports import locks_diagram
from repro.core.records import StatisticsRecord
from repro.errors import ReproError
from repro.setups import monitoring_setup

from conftest import write_result

RUN_SECONDS = 3.0
SAMPLE_INTERVAL = 0.1


@pytest.fixture(scope="module")
def contention_run():
    setup = monitoring_setup()
    engine = setup.engine
    engine.create_database("db")
    bootstrap = engine.connect("db")
    bootstrap.execute("create table acct_a (id int not null, n int, "
                      "primary key (id))")
    bootstrap.execute("create table acct_b (id int not null, n int, "
                      "primary key (id))")
    bootstrap.execute("insert into acct_a values (1, 0)")
    bootstrap.execute("insert into acct_b values (1, 0)")

    stop = threading.Event()
    samples: list[StatisticsRecord] = []

    def sampler():
        start = time.monotonic()
        while not stop.is_set():
            stats = engine.system_statistics()
            samples.append(StatisticsRecord(
                timestamp=round(time.monotonic() - start, 3),
                **{k: v for k, v in stats.items()
                   if k in StatisticsRecord._fields}))
            time.sleep(SAMPLE_INTERVAL)

    def transfer(first: str, second: str):
        """Deadlock-prone: lock `first` then `second` in one txn."""
        with engine.connect("db") as session:
            deadline = time.monotonic() + RUN_SECONDS
            while time.monotonic() < deadline:
                try:
                    session.execute("begin")
                    session.execute(f"update {first} set n = n + 1")
                    time.sleep(0.01)
                    session.execute(f"update {second} set n = n - 1")
                    session.execute("commit")
                except ReproError:
                    try:
                        session.execute("rollback")
                    except ReproError:
                        pass

    def reader():
        with engine.connect("db") as session:
            deadline = time.monotonic() + RUN_SECONDS
            while time.monotonic() < deadline:
                try:
                    session.execute("select n from acct_a")
                    session.execute("select n from acct_b")
                except ReproError:
                    pass
                time.sleep(0.002)

    threads = [
        threading.Thread(target=transfer, args=("acct_a", "acct_b")),
        threading.Thread(target=transfer, args=("acct_b", "acct_a")),
        threading.Thread(target=reader),
        threading.Thread(target=reader),
    ]
    sampler_thread = threading.Thread(target=sampler)
    sampler_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()
    sampler_thread.join()
    return engine, samples


def test_fig8_locks_diagram(contention_run, benchmark):
    engine, samples = contention_run
    diagram = benchmark.pedantic(
        lambda: locks_diagram(samples),
        rounds=1, iterations=1)
    rendered = diagram.render()
    stats = engine.lock_manager.statistics()
    summary = (f"\nfinal lock statistics: requests={stats.total_requests} "
               f"waits={stats.total_waits} deadlocks={stats.total_deadlocks}"
               f"\npaper: locks-over-time strip with wait (W) and deadlock "
               f"(D!) markers")
    write_result("fig8_locks_diagram", rendered + summary)

    # Shape assertions.
    # 1) continuous sampling produced a real time series.
    assert len(diagram.samples) >= 10
    # 2) the contention workload produced lock waits...
    assert sum(n for _t, n in diagram.wait_events) > 0
    # 3) ...and the opposing-order transfer pair produced deadlocks,
    #    which the diagram marks.
    assert sum(n for _t, n in diagram.deadlock_events) > 0
    assert "W" in rendered
    assert "D!" in rendered
    # 4) the engine stayed consistent: the lock manager agrees with the
    #    sampled series.
    assert stats.total_deadlocks >= sum(
        n for _t, n in diagram.deadlock_events)
