#!/usr/bin/env python3
"""Live monitoring: background daemon, alert triggers and lock diagram.

Demonstrates the operational side of the paper's system: the storage
daemon running as a real background thread, alert triggers on the
workload database firing as thresholds are crossed, and the lock
statistics strip chart rendered from a concurrent contention workload.
"""

import threading
import time

from repro import daemon_setup
from repro.config import DaemonConfig
from repro.core.alerts import (
    add_alert_listener,
    fired_alerts,
    install_standard_alerts,
)
from repro.core.analyzer.reports import locks_diagram
from repro.core.analyzer.workload_view import view_from_workload_db
from repro.errors import ReproError

RUN_SECONDS = 3.0


def main() -> None:
    setup = daemon_setup(
        "live",
        daemon_config=DaemonConfig(poll_interval_s=0.5,
                                   flush_every_polls=2),
    )
    engine = setup.engine
    session = engine.connect("live")
    session.execute("create table account (id int not null, balance int, "
                    "primary key (id)) with main_pages = 1")
    session.execute("insert into account values (1, 1000), (2, 1000)")

    install_standard_alerts(setup.workload_db, max_sessions=3,
                            lock_wait_threshold=5)
    add_alert_listener(
        setup.workload_db,
        lambda alert: print(f"  !! ALERT [{alert.trigger_name}] "
                            f"{alert.message}"))

    print("starting the storage daemon (background thread) ...")
    setup.daemon.start()

    print(f"running a contention workload for {RUN_SECONDS:.0f}s ...")

    def transfer(first: int, second: int) -> None:
        with engine.connect("live") as worker:
            deadline = time.monotonic() + RUN_SECONDS
            while time.monotonic() < deadline:
                try:
                    worker.execute("begin")
                    worker.execute(f"update account set balance = "
                                   f"balance - 10 where id = {first}")
                    time.sleep(0.005)
                    worker.execute(f"update account set balance = "
                                   f"balance + 10 where id = {second}")
                    worker.execute("commit")
                except ReproError:
                    try:
                        worker.execute("rollback")
                    except ReproError:
                        pass

    def reader() -> None:
        with engine.connect("live") as worker:
            deadline = time.monotonic() + RUN_SECONDS
            while time.monotonic() < deadline:
                try:
                    worker.execute("select sum(balance) from account")
                except ReproError:
                    pass
                time.sleep(0.01)

    threads = [
        threading.Thread(target=transfer, args=(1, 2)),
        threading.Thread(target=transfer, args=(2, 1)),
        threading.Thread(target=reader),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    print("stopping the daemon (final flush) ...")
    setup.daemon.stop()

    locks = engine.lock_manager.statistics()
    print(f"\nlock system: {locks.total_requests} requests, "
          f"{locks.total_waits} waits, {locks.total_deadlocks} deadlocks")

    print(f"workload DB: {setup.workload_db.total_rows()} rows, "
          f"{setup.daemon.status().cycles} polls, "
          f"{setup.daemon.total_rows_flushed} rows flushed")

    alerts = fired_alerts(setup.workload_db)
    print(f"\n{len(alerts)} alert(s) fired; distinct triggers: "
          f"{sorted({a.trigger_name for a in alerts})}")

    print("\nlocks diagram (from the persisted statistics):")
    samples = view_from_workload_db(setup.workload_db).statistics
    print(locks_diagram(samples).render(width=40))

    total = session.execute("select sum(balance) from account").scalar()
    print(f"\ninvariant check: total balance = {total} (expected 2000)")


if __name__ == "__main__":
    main()
