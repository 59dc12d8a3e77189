"""Multi-session traffic driver: N concurrent NREF sessions.

The paper's measurements flood the engine from a single connection; the
sharded monitor exists for the many-session case, so this module
supplies the missing traffic source.  :class:`ThreadedDriver` connects
``N`` sessions to one engine and runs a statement list per session on
its own thread, rendezvousing on a barrier so every pass measures
genuinely concurrent load against the shared (sharded) monitor.

Two execution modes, both reachable from the command line
(``python -m repro.workloads.driver`` or ``repro drive``):

``thread``
    N threads, one shared engine — the mode that actually exercises
    shard routing, merged-IMA ordering and the daemon's parallel
    polling.  With ``--check`` the run drains the storage daemon and
    verifies the end-to-end invariants of :mod:`repro.invariants`:
    no duplicate ``src_seq``, per shard monotone persistence order, and
    every ``wl_workload`` row attributed to the shard its session
    hashes to.

``process``
    N worker processes, each with a private engine and session — a
    GIL-free load generator for soak runs.  It cannot share a monitor
    across processes (nothing can; the buffers are in-core by design),
    so it reports per-process throughput only.

A third mode, ``--storm``, turns the thread driver into an overload
burst (tiny rings, fast ladder, a poll-worker hang and repeated worker
deaths, then a quiesce phase) judged by the storm rule of
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
from repro.core.sharding import SHARD_STRIDE
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

    Sessions are connected once at construction (binding each to its
    monitor shard) and reused across passes, the way the paper's
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
    per-shard order, session attribution, every session's shard
    persisted).  Returns the violations; empty means all held."""
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
                    proteins: int, shard_count: int, poll_workers: int,
                    seed: int = 13,
                    check: bool = False) -> tuple[DriverReport, list[str]]:
    """One thread-mode pass against a daemon-attached sharded engine."""
    config = EngineConfig(
        monitor=MonitorConfig(shard_count=shard_count),
        daemon=DaemonConfig(poll_workers=poll_workers))
    setup = daemon_setup("nref", config=config)
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
    """Overload burst against a daemon-attached sharded engine.

    Real-clock phases: a **baseline** pass plus poll establishes every
    shard's high-water mark (unread loss is measured against it); a
    **burst** phase appends faster than the tiny workload rings can be
    polled, so loss pressure walks shards down the ladder; a **fault**
    phase hangs one poll worker past its heartbeat deadline and then
    kills every worker until both poll groups park (parked shards are
    forced to SHED); a **recovery** phase clears the faults and polls
    until the groups half-open back and every shard climbs back to
    DETAILED.

    Returns ``(summary, violations)``: the final health snapshot, and
    :func:`repro.invariants.storm_violations` with a SHED peak plus
    proof that a worker hung and one died.
    """
    faultsim.reset()
    shard_count = min(sessions, SHARD_STRIDE)
    config = EngineConfig(
        monitor=MonitorConfig(
            shard_count=shard_count,
            workload_buffer_size=96,
            overload=OverloadConfig(sample_k=4, escalate_dwell=1,
                                    recover_dwell=2)),
        daemon=DaemonConfig(poll_workers=2,
                            flush_every_polls=1,
                            worker_heartbeat_timeout_s=0.3,
                            worker_park_after=2,
                            worker_park_cooldown_s=0.2))
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
    summary: dict = {"mode": "storm", "sessions": sessions,
                     "shard_count": shard_count, "passes": 0,
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
        # Baseline: one pass, one clean poll — every shard now has a
        # persisted high-water mark to measure unread loss against.
        one_pass()
        try_poll()

        # Burst: two passes per poll overrun the 96-row rings, so each
        # poll sees unread loss and (dwell 1) degrades one rung.
        for _ in range(2):
            one_pass()
            one_pass()
            try_poll()

        # Faults: one worker sleeps past the 0.3 s heartbeat deadline
        # (abandoned as hung), then every worker dies on every poll
        # until both groups park and their shards are forced to SHED.
        faultsim.arm_from_spec(
            "daemon.poll_worker.hang:once,latency=0.8", clock=clock)
        try_poll()
        faultsim.arm_from_spec("daemon.poll_worker.die:every-n=1")
        for _ in range(3):
            one_pass()
            try_poll()
            supervisor.tick()
        faultsim.reset()

        # Recovery: traffic stops; quiesce polls let the 0.2 s park
        # cooldown expire (half-open success unparks) and walk every
        # shard back down the ladder to DETAILED.
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
        if status.worker_hangs == 0:
            violations.append("no poll worker was hung by the storm")
        if status.worker_deaths == 0:
            violations.append("no poll worker died in the storm")
        summary["worker_hangs"] = status.worker_hangs
        summary["worker_deaths"] = status.worker_deaths
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
    parser.add_argument("--shards", type=int, default=0,
                        help="monitor shard count (0 = one per session, "
                             f"capped at {SHARD_STRIDE})")
    parser.add_argument("--workers", type=int, default=2,
                        help="daemon poll worker threads")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--check", action="store_true",
                        help="drain the daemon and verify persisted "
                             "exactly-once/ordering/attribution invariants")
    parser.add_argument("--storm", action="store_true",
                        help="overload burst: tiny rings, fast ladder, "
                             "worker hang/death faults, then verify the "
                             "ladder reached SHED, conservation held "
                             "exactly and everything recovered to "
                             "DETAILED (ignores --mode/--shards/"
                             "--workers/--check)")
    args = parser.parse_args(argv)

    if args.storm:
        summary, violations = run_storm_mode(
            args.sessions, args.statements, args.proteins, seed=args.seed)
        summary["violations"] = violations
        print(json.dumps(summary, indent=2, default=str))
        for violation in violations:
            print(f"STORM CHECK FAIL: {violation}", file=sys.stderr)
        return 1 if violations else 0

    shard_count = args.shards or min(args.sessions, SHARD_STRIDE)
    failed = False
    if args.mode in ("thread", "both"):
        report, violations = run_thread_mode(
            args.sessions, args.statements, args.proteins,
            shard_count, args.workers, seed=args.seed, check=args.check)
        summary = report.as_dict()
        summary["shard_count"] = shard_count
        summary["poll_workers"] = args.workers
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
