"""Multi-session traffic driver: N concurrent NREF sessions.

The paper's measurements flood the engine from a single connection;
this module supplies the many-session traffic source.
:class:`ThreadedDriver` connects ``N`` sessions to one engine and runs
a statement list per session on its own thread, rendezvousing on a
barrier so every pass measures genuinely concurrent load against the
shared monitor.

Two execution modes, both reachable from the command line
(``python -m repro.workloads.driver`` or ``repro drive``):

``thread``
    N threads, one shared engine and monitor.  With ``--check`` the
    run drains the storage daemon and verifies the end-to-end
    invariants of :mod:`repro.invariants`: no duplicate ``src_seq``,
    ascending persistence order, and every session's statements in the
    persisted history.

``process``
    N worker processes, each with a private engine and session — a
    GIL-free load generator for soak runs.  It cannot share a monitor
    across processes (nothing can; the buffers are in-core by design),
    so it reports per-process throughput only.

A third mode, ``--storm``, turns the thread driver into an overload
burst (tiny rings, fast ladder, ring floods, a dead daemon thread the
supervisor restarts, then a quiesce phase) judged by the storm rule of
:mod:`repro.invariants`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro import faultsim
from repro.clock import Clock, SystemClock
from repro.config import (
    DaemonConfig,
    EngineConfig,
    MonitorConfig,
    OverloadConfig,
)
from repro.core.overload import SHED
from repro.errors import ReproError
from repro.invariants import history_violations, settled, storm_violations
from repro.setups import Setup, attach_supervisor, daemon_setup, monitoring_setup
from repro.workloads.nref import NrefScale, load_nref
from repro.workloads.queries import point_query_statements
from repro.workloads.runner import RunReport, WorkloadRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EngineInstance


@dataclass
class DriverReport:
    """Aggregate outcome of one concurrent pass (or one process run)."""

    mode: str
    sessions: int
    statements: int = 0
    errors: int = 0
    wallclock_s: float = 0.0
    per_session: list[RunReport] = field(default_factory=list)

    @property
    def statements_per_second(self) -> float:
        if self.wallclock_s <= 0:
            return 0.0
        return self.statements / self.wallclock_s

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "sessions": self.sessions,
            "statements": self.statements,
            "errors": self.errors,
            "wallclock_s": round(self.wallclock_s, 6),
            "statements_per_second": round(self.statements_per_second, 1),
        }


class ThreadedDriver:
    """Drives one statement list per session, concurrently, repeatably.

    Sessions are connected once at construction and reused across
    passes, the way the paper's
    long-lived applications hold connections — so repeated passes
    measure warm statement/plan caches, not connection setup.
    """

    def __init__(self, engine: "EngineInstance", database: str,
                 statement_lists: Sequence[Sequence[str]]) -> None:
        if not statement_lists:
            raise ValueError("at least one session statement list required")
        self.engine = engine
        self.statement_lists = [list(chunk) for chunk in statement_lists]
        self.sessions = [engine.connect(database)
                         for _ in self.statement_lists]
        self._runners = [WorkloadRunner(session, keep_per_statement=False)
                         for session in self.sessions]

    @property
    def session_ids(self) -> list[int]:
        return [session.session_id for session in self.sessions]

    def run_pass(self, on_error: str = "raise") -> DriverReport:
        """One concurrent pass: every session runs its full list.

        All threads block on a barrier before their first statement, so
        the measured window contains only concurrent execution.  The
        first worker exception (if any) is re-raised here after every
        thread has finished.
        """
        count = len(self.sessions)
        barrier = threading.Barrier(count)
        reports: list[RunReport | None] = [None] * count
        failures: list[BaseException | None] = [None] * count

        def drive(index: int) -> None:
            try:
                barrier.wait()
                reports[index] = self._runners[index].run(
                    self.statement_lists[index], on_error=on_error)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                failures[index] = error

        threads = [
            threading.Thread(target=drive, args=(index,),
                             name=f"repro-driver-{index}", daemon=True)
            for index in range(count)
        ]
        clock = self.engine.clock
        started = clock.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wallclock = clock.monotonic() - started
        for failure in failures:
            if failure is not None:
                raise failure
        report = DriverReport(mode="thread", sessions=count,
                              wallclock_s=wallclock)
        for session_report in reports:
            assert session_report is not None
            report.statements += session_report.statements
            report.errors += session_report.errors
            report.per_session.append(session_report)
        return report

    def close(self) -> None:
        for session in self.sessions:
            session.close()


# -- end-to-end invariant checks ------------------------------------------


def verify_persisted_invariants(setup: Setup,
                                session_ids: Sequence[int]) -> list[str]:
    """Drain the daemon, then check the persisted workload history
    (:func:`repro.invariants.history_violations`: exactly-once,
    ascending order, every session persisted).  Returns the violations;
    empty means all held."""
    assert setup.daemon is not None
    setup.daemon.poll_once()
    setup.daemon.flush()
    return history_violations(setup, session_ids)


# -- mode runners ----------------------------------------------------------


def _statement_lists(sessions: int, statements_per_session: int,
                     scale: NrefScale, seed: int) -> list[list[str]]:
    """Per-session point-query lists with disjoint RNG streams, so the
    sessions do not all hammer the identical id rotation in lockstep."""
    return [
        point_query_statements(statements_per_session, scale,
                               seed=seed + 17 * index)
        for index in range(sessions)
    ]


def run_thread_mode(sessions: int, statements_per_session: int,
                    proteins: int, seed: int = 13,
                    check: bool = False) -> tuple[DriverReport, list[str]]:
    """One thread-mode pass against a daemon-attached engine."""
    setup = daemon_setup("nref")
    scale = NrefScale(proteins=proteins)
    load_nref(setup.engine.database("nref"), scale)
    driver = ThreadedDriver(
        setup.engine, "nref",
        _statement_lists(sessions, statements_per_session, scale, seed))
    try:
        report = driver.run_pass()
        violations = (verify_persisted_invariants(setup, driver.session_ids)
                      if check else [])
    finally:
        driver.close()
    return report, violations


def run_storm_mode(sessions: int, statements_per_session: int,
                   proteins: int, seed: int = 13,
                   ) -> tuple[dict, list[str]]:
    """Overload burst against a daemon-attached engine.

    Real-clock phases: a **baseline** pass plus poll establishes the
    workload ring's high-water mark (unread loss is measured against
    it); a **burst** phase appends faster than the tiny workload ring
    can be polled, so loss pressure walks the monitor down the ladder;
    a **flood** phase arms ``monitor.ring_flood`` until the pressure
    has forced SHED; a **thread death** phase stops the daemon's poll
    thread and lets the :class:`~repro.core.health.Supervisor` restart
    it; a **recovery** phase clears the faults and polls until the
    monitor climbs back to DETAILED.

    Returns ``(summary, violations)``: the final health snapshot, and
    :func:`repro.invariants.storm_violations` with a SHED peak plus
    proof that the supervisor restarted the dead thread.
    """
    faultsim.reset()
    config = EngineConfig(
        monitor=MonitorConfig(
            workload_buffer_size=96,
            overload=OverloadConfig(sample_k=4, escalate_dwell=1,
                                    recover_dwell=2)),
        daemon=DaemonConfig(flush_every_polls=1))
    setup = daemon_setup("nref", config=config)
    daemon, controller = setup.daemon, setup.controller
    assert daemon is not None and controller is not None
    clock = setup.engine.clock
    daemon.start()  # inert during the storm (30 s interval) but gives
    supervisor = attach_supervisor(setup)  # the supervisor a live watch
    scale = NrefScale(proteins=proteins)
    load_nref(setup.engine.database("nref"), scale)
    driver = ThreadedDriver(
        setup.engine, "nref",
        _statement_lists(sessions, statements_per_session, scale, seed))
    summary: dict = {"mode": "storm", "sessions": sessions, "passes": 0,
                     "statements": 0, "errors": 0, "poll_failures": 0,
                     "recovery_polls": 0}

    def one_pass() -> None:
        report = driver.run_pass()
        summary["passes"] += 1
        summary["statements"] += report.statements
        summary["errors"] += report.errors

    def try_poll() -> bool:
        try:
            daemon.poll_once()
        except (ReproError, OSError):
            summary["poll_failures"] += 1
            return False
        return True

    try:
        # Baseline: one pass, one clean poll — the workload ring now
        # has a persisted high-water mark to measure unread loss against.
        one_pass()
        try_poll()

        # Burst: two passes per poll overrun the 96-row ring, so each
        # poll sees unread loss and (dwell 1) degrades one rung.
        for _ in range(2):
            one_pass()
            one_pass()
            try_poll()

        # Flood: every observation reads pressure 1.0, so each poll
        # degrades one more rung until the monitor sheds.
        faultsim.arm_from_spec("monitor.ring_flood:every-n=1")
        for _ in range(3):
            one_pass()
            try_poll()
        faultsim.reset()

        # Thread death: the poll thread stops as a crashed one would;
        # the supervisor's next tick restarts it.
        daemon.stop(final_flush=False)
        supervisor.tick()

        # Recovery: traffic stops; quiesce polls walk the monitor back
        # down the ladder to DETAILED.
        for attempt in range(80):
            summary["recovery_polls"] = attempt + 1
            healthy = try_poll()
            supervisor.tick()
            if healthy and settled(setup):
                break
            clock.sleep(0.05)
        daemon.flush()

        # The storm contract, checked at quiescence.
        violations = storm_violations(setup, min_peak=SHED)
        status = daemon.status()
        if status.restarts == 0 or not daemon.is_alive():
            violations.append(
                "the supervisor did not restart the dead poll thread")
        summary["restarts"] = status.restarts
        summary["degraded_windows"] = controller.degraded_windows()
        summary["supervisor_states"] = supervisor.states()
        summary["health"] = setup.engine.health()
    finally:
        driver.close()
        daemon.stop(final_flush=False)
        faultsim.reset()
    return summary, violations


def _process_worker(payload: tuple[int, int, int, int]) -> tuple[int, int]:
    """One process-mode worker: private monitored engine, one session.

    Module-level (not a closure) so it survives pickling under the
    ``spawn`` start method as well as ``fork``.
    """
    index, statements_per_session, proteins, seed = payload
    setup = monitoring_setup()
    setup.engine.create_database("nref")
    scale = NrefScale(proteins=proteins)
    load_nref(setup.engine.database("nref"), scale)
    session = setup.engine.connect("nref")
    try:
        report = WorkloadRunner(session, keep_per_statement=False).run(
            point_query_statements(statements_per_session, scale,
                                   seed=seed + 17 * index))
    finally:
        session.close()
    return report.statements, report.errors


def run_process_mode(sessions: int, statements_per_session: int,
                     proteins: int, seed: int = 13,
                     clock: Clock | None = None) -> DriverReport:
    """N worker processes, each a private engine — a GIL-free soak."""
    clock = clock or SystemClock()
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = multiprocessing.get_context("spawn")
    payloads = [(index, statements_per_session, proteins, seed)
                for index in range(sessions)]
    started = clock.monotonic()
    with context.Pool(processes=sessions) as pool:
        outcomes = pool.map(_process_worker, payloads)
    wallclock = clock.monotonic() - started
    report = DriverReport(mode="process", sessions=sessions,
                          wallclock_s=wallclock)
    for statements, errors in outcomes:
        report.statements += statements
        report.errors += errors
    return report


# -- command line ----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Multi-session NREF traffic driver")
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--statements", type=int, default=200,
                        help="statements per session per pass")
    parser.add_argument("--proteins", type=int, default=60)
    parser.add_argument("--mode", choices=("thread", "process", "both"),
                        default="thread")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--check", action="store_true",
                        help="drain the daemon and verify persisted "
                             "exactly-once/ordering/attribution invariants")
    parser.add_argument("--storm", action="store_true",
                        help="overload burst: tiny rings, fast ladder, "
                             "ring floods and a dead daemon thread, then "
                             "verify the ladder reached SHED, "
                             "conservation held exactly, the supervisor "
                             "restarted the thread and the monitor "
                             "recovered to DETAILED (ignores --mode/"
                             "--check)")
    args = parser.parse_args(argv)

    if args.storm:
        summary, violations = run_storm_mode(
            args.sessions, args.statements, args.proteins, seed=args.seed)
        summary["violations"] = violations
        print(json.dumps(summary, indent=2, default=str))
        for violation in violations:
            print(f"STORM CHECK FAIL: {violation}", file=sys.stderr)
        return 1 if violations else 0

    failed = False
    if args.mode in ("thread", "both"):
        report, violations = run_thread_mode(
            args.sessions, args.statements, args.proteins,
            seed=args.seed, check=args.check)
        summary = report.as_dict()
        if args.check:
            summary["violations"] = violations
        print(json.dumps(summary, indent=2))
        if violations:
            for violation in violations:
                print(f"DRIVER CHECK FAIL: {violation}", file=sys.stderr)
            failed = True
    if args.mode in ("process", "both"):
        report = run_process_mode(args.sessions, args.statements,
                                  args.proteins, seed=args.seed)
        print(json.dumps(report.as_dict(), indent=2))
        if report.errors:
            print(f"DRIVER FAIL: {report.errors} statement errors "
                  "in process mode", file=sys.stderr)
            failed = True
    return 1 if failed else 0


__all__ = [
    "DriverReport",
    "ThreadedDriver",
    "main",
    "run_process_mode",
    "run_storm_mode",
    "run_thread_mode",
    "verify_persisted_invariants",
]


if __name__ == "__main__":
    raise SystemExit(main())
