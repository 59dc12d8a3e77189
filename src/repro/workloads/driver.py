"""Multi-session traffic driver: N concurrent NREF sessions.

The paper's measurements flood the engine from a single connection;
this module supplies the many-session traffic source.
:class:`ThreadedDriver` connects ``N`` sessions to one engine and runs
a statement list per session on its own thread, rendezvousing on a
barrier so every pass measures genuinely concurrent load against the
shared monitor.

``python -m repro.workloads.driver`` (or ``repro drive``) runs one
pass against a daemon-attached engine.  With ``--check`` it then
drains the storage daemon and verifies the persisted-history rule of
:mod:`repro.invariants`: no duplicate ``src_seq``, ascending
persistence order, and every session's statements in the persisted
history.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.invariants import history_violations
from repro.setups import Setup, daemon_setup
from repro.workloads.nref import NrefScale, load_nref
from repro.workloads.queries import point_query_statements
from repro.workloads.runner import RunReport, WorkloadRunner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import EngineInstance


@dataclass
class DriverReport:
    """Aggregate outcome of one concurrent pass."""

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
        report = DriverReport(sessions=count, wallclock_s=wallclock)
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


# -- the thread soak -------------------------------------------------------


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


# -- command line ----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Multi-session NREF traffic driver")
    parser.add_argument("--sessions", type=int, default=8)
    parser.add_argument("--statements", type=int, default=200,
                        help="statements per session per pass")
    parser.add_argument("--proteins", type=int, default=60)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--check", action="store_true",
                        help="drain the daemon and verify persisted "
                             "exactly-once/ordering/attribution invariants")
    args = parser.parse_args(argv)

    report, violations = run_thread_mode(
        args.sessions, args.statements, args.proteins,
        seed=args.seed, check=args.check)
    summary = report.as_dict()
    if args.check:
        summary["violations"] = violations
    print(json.dumps(summary, indent=2))
    for violation in violations:
        print(f"DRIVER CHECK FAIL: {violation}", file=sys.stderr)
    return 1 if violations else 0


__all__ = [
    "DriverReport",
    "ThreadedDriver",
    "main",
    "run_thread_mode",
    "verify_persisted_invariants",
]


if __name__ == "__main__":
    raise SystemExit(main())
