"""Autonomous implementation of recommended changes.

The last step of the paper's outlook (section VI): "a next step would
then be the autonomous implementation of changes without interaction of
the DBA."  :class:`AutonomousTuner` closes the control loop: each cycle
it flushes the daemon, analyzes the workload DB, runs the accepted
recommendations through one selection function and a safety policy,
and applies the surviving set in application order.

Safety policy:

* an optional disk budget for new indexes,
* a cap on changes per cycle,
* dry-run mode reports what *would* be applied,
* changes already applied in an earlier cycle are never repeated.

Crash-only operation (the daemon's "never dies, never lies" contract,
extended to the implementation end of the loop):

* Every change is journaled *before* it runs — intent, undo SQL and
  outcome live in the workload DB (:mod:`repro.core.tuning_journal`),
  so the applied-set is rebuilt from persisted state, never from
  memory alone.  A tuner killed at any point restarts cleanly.
* :meth:`recover` replays interrupted journal entries at the start of
  every cycle: a change whose intent was journaled but whose outcome
  was lost is rolled back with the captured undo SQL (if it reached
  the schema) or marked rolled-back (if it never did); idempotent
  statistics collection is completed forward instead.
* A recommendation that keeps failing is *quarantined* by a
  per-recommendation circuit breaker: after
  :data:`~repro.core.tuning_journal.QUARANTINE_AFTER_FAILURES`
  consecutive failures it is benched for
  ``quarantine_cooldown_s`` after the last one and skipped with a
  reason in the cycle report instead of being retried every cycle.
  The breaker is the journal's failure streaks and nothing else, so
  quarantine survives a restart.
* ``start``/``stop`` run ``run_cycle`` on a
  :class:`~repro.core.health.PeriodicWorker`, like the daemon's polls:
  a failed cycle adds ``RETRY_BACKOFF`` (1 s doubling, 60 s cap) to
  the next wait, a hung thread is never orphaned.  A failed journal
  mark is counted in the report's ``journal_errors`` and heals on the
  next recovery pass.

Locking is two-level like the daemon's.  ``_cycle_mutex`` serializes
whole tuning cycles end to end (held across the SQL round trips by
design; never taken on engine hot paths).  ``_lock`` stays cheap: it
guards only counters and the history and is never held across I/O.
Lock order: ``_cycle_mutex`` -> journal ``_write_mutex`` -> ``_lock``.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.catalog.schema import StorageStructure
from repro.clock import Clock
from repro.core.analyzer.analyzer import Analyzer
from repro.core.analyzer.dependencies import select_recommendations
from repro.core.analyzer.recommendations import (
    AppliedRecommendation,
    Recommendation,
    RecommendationKind,
    apply_one,
    undo_sql,
)
from repro.core.daemon import StorageDaemon
from repro.core.health import RETRY_BACKOFF, PeriodicWorker, WorkerOwner, WorkerStatus
from repro.core.tuning_journal import (
    JournalEntry,
    JournalHealth,
    TuningJournal,
)
from repro.core.workload_db import WorkloadDatabase
from repro.errors import MonitorError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database
    from repro.engine.engine import EngineInstance
    from repro.engine.session import Session


#: Seconds between cycles when the tuner runs as a background thread.
CYCLE_INTERVAL_S = 300.0


@dataclass(frozen=True)
class TuningPolicy:
    """Guard rails for autonomous changes."""

    disk_budget_bytes: int | None = None
    max_changes_per_cycle: int = 16
    dry_run: bool = False

    quarantine_cooldown_s: float = 600.0
    """Seconds after its last failure a benched recommendation sits out
    before one retry (another failure re-quarantines it at once)."""


@dataclass
class TuningCycleReport:
    """What one autonomous cycle decided and did."""

    cycle: int
    statements_analyzed: int = 0
    whatif_calls: int = 0
    rows_folded: int = 0
    """Workload-DB rows the analyzer read this cycle."""
    considered: list[Recommendation] = field(default_factory=list)
    skipped: list[tuple[Recommendation, str]] = field(default_factory=list)
    quarantined: list[tuple[Recommendation, str]] = field(default_factory=list)
    """Subset of ``skipped`` benched by the circuit breaker."""
    applied: list[AppliedRecommendation] = field(default_factory=list)
    recovered: list[tuple[str, str]] = field(default_factory=list)
    """Interrupted journal entries resolved this cycle: (sql, action)."""
    daemon_error: str = ""
    """Poll/flush failure the cycle survived (analysis used the data
    already persisted)."""
    journal_errors: int = 0
    """Journal writes that failed during the cycle, recovery included
    (fail-closed for intents; marks are healed by the next recovery)."""
    dry_run: bool = False

    @property
    def applied_count(self) -> int:
        return sum(1 for a in self.applied if a.succeeded)

    def describe(self) -> str:
        lines = [f"autonomous tuning cycle #{self.cycle} "
                 f"({'dry run' if self.dry_run else 'live'}):",
                 f"  statements analyzed: {self.statements_analyzed}, "
                 f"{self.whatif_calls} what-if calls, "
                 f"{self.rows_folded} rows read",
                 f"  recommendations considered: {len(self.considered)}"]
        for sql, action in self.recovered:
            lines.append(f"  recovered: {sql} -- {action}")
        if self.daemon_error:
            lines.append(f"  daemon unavailable: {self.daemon_error} "
                         f"(analyzed persisted history)")
        for recommendation, reason in self.skipped:
            lines.append(f"  skipped: {recommendation.to_sql()} -- {reason}")
        for applied in self.applied:
            status = "ok" if applied.succeeded else f"FAILED: {applied.error}"
            lines.append(f"  applied: {applied.sql} -- {status}")
        if self.journal_errors:
            lines.append(f"  journal write failures: {self.journal_errors}")
        if self.dry_run and self.considered and not self.applied:
            lines.append("  (dry run: nothing executed)")
        return "\n".join(lines)


@dataclass(frozen=True)
class QuarantineStatus:
    """One benched recommendation, as shown by ``\\tuner status``."""

    sql: str
    failures: int
    cooldown_remaining_s: float
    last_error: str


@dataclass(frozen=True)
class TunerStatus(WorkerStatus):
    """Health snapshot returned by :meth:`AutonomousTuner.status`."""

    changes_applied: int
    quarantined: tuple[QuarantineStatus, ...]
    journal: JournalHealth


_MAX_HISTORY = 64


class AutonomousTuner(WorkerOwner):
    """Closes the monitoring -> analysis -> implementation loop."""

    def __init__(self, engine: "EngineInstance", database_name: str,
                 workload_db: WorkloadDatabase,
                 daemon: StorageDaemon | None = None,
                 policy: TuningPolicy | None = None,
                 analyzer: Analyzer | None = None,
                 journal: TuningJournal | None = None) -> None:
        self.engine = engine
        self.database_name = database_name
        self.workload_db = workload_db
        self.daemon = daemon
        self.policy = policy or TuningPolicy()
        self.analyzer = analyzer or Analyzer(engine.database(database_name))
        self.journal = journal if journal is not None \
            else workload_db.tuning_journal()
        self.clock: Clock = engine.clock
        # Serializes whole cycles/recoveries end to end (see module doc).
        self._cycle_mutex = threading.Lock()
        self._lock = threading.Lock()
        # Recent cycle reports, oldest dropped beyond the cap.
        self.history: list[TuningCycleReport] = []
        # Journal marks that failed in the current cycle (recovery's
        # included); reset when a cycle starts.
        self._mark_failures = 0
        self.worker = PeriodicWorker(
            "repro-autonomous-tuner", CYCLE_INTERVAL_S,
            self.run_cycle, RETRY_BACKOFF, self.clock)

    # -- circuit breakers ----------------------------------------------------

    def _quarantined(self) -> dict[str, QuarantineStatus]:
        """Benched statements, read from the journal's failure streaks.

        A cooldown of 0 means half-open: one retry is allowed, and
        another failure extends the streak and benches it again.
        """
        now = self.clock.now()
        return {
            sql: QuarantineStatus(
                sql=sql, failures=streak.count,
                cooldown_remaining_s=max(
                    0.0,
                    streak.last_ts + self.policy.quarantine_cooldown_s - now),
                last_error=streak.last_error)
            for sql, streak in self.journal.failure_streaks().items()
            if streak.quarantined}

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> list[tuple[str, str]]:
        """Resolve interrupted journal entries; returns (sql, action).

        Idempotent: once every entry is in a terminal state, replaying
        recovery does nothing and writes nothing.  Also runs at the
        start of every cycle, so a crashed tuner heals on its next
        wake-up without operator help.
        """
        with self._cycle_mutex:
            # Recovery's SQL round trips run under the cycle mutex by
            # design — a concurrent cycle must not apply changes while
            # interrupted entries are being rolled back.
            return self._recover_locked()  # staticcheck: ignore[LCK004]

    def _recover_locked(self) -> list[tuple[str, str]]:
        interrupted = self.journal.interrupted()
        if not interrupted:
            return []
        actions: list[tuple[str, str]] = []
        database = self.engine.database(self.database_name)
        with self.engine.connect(self.database_name) as session:
            for entry in interrupted:
                actions.append(
                    (entry.sql,
                     self._recover_entry(session, database, entry)))
        return actions

    def _recover_entry(self, session: "Session", database: "Database",
                       entry: JournalEntry) -> str:
        """Resolve one interrupted entry; returns a description.

        Journal marks are best-effort here: if the mark itself fails,
        the entry stays ``intent`` and the next recovery retries it —
        convergence over availability.
        """
        kind = RecommendationKind(entry.kind)
        if kind is RecommendationKind.CREATE_STATISTICS:
            # Statistics collection is idempotent: complete forward.
            try:
                session.execute(entry.sql)
            except (ReproError, OSError) as error:
                self._mark(self.journal.mark_failed, entry.entry_id,
                           str(error))
                return f"forward completion failed: {error}"
            self._mark(self.journal.mark_applied, entry.entry_id)
            return "completed forward (idempotent)"
        if not self._change_present(database, kind, entry):
            # The crash hit before the DDL reached the schema.
            self._mark(self.journal.mark_rolled_back, entry.entry_id)
            return "rolled back (never reached the schema)"
        # The DDL is in the schema but its outcome was never journaled:
        # the cycle died half-applied.  Revert with the undo captured
        # at intent time; the analyzer will re-recommend it if it is
        # still worth having.
        try:
            session.execute(entry.undo_sql)
        except (ReproError, OSError) as error:
            return f"rollback failed, will retry: {error}"
        self._mark(self.journal.mark_rolled_back, entry.entry_id)
        return "rolled back with journaled undo"

    def _mark(self, write: Callable[..., None], entry_id: int,
              *args: str) -> None:
        """Journal transition that must not kill the cycle; a failure
        counts into ``journal_errors`` and heals on the next recovery."""
        try:
            write(entry_id, *args)
        except (MonitorError, OSError):
            with self._lock:
                self._mark_failures += 1

    @staticmethod
    def _change_present(database: "Database", kind: RecommendationKind,
                        entry: JournalEntry) -> bool:
        if kind is RecommendationKind.CREATE_INDEX:
            return database.catalog.has_index(entry.object_name)
        if kind is RecommendationKind.MODIFY_TO_BTREE:
            if not database.catalog.has_table(entry.table_name):
                return False
            structure = database.catalog.table(entry.table_name).structure
            return structure is StorageStructure.BTREE
        return False

    # -- the cycle -----------------------------------------------------------

    def run_cycle(self) -> TuningCycleReport:
        """One full autonomous cycle; returns what happened.  Raises on
        failure, after the worker recorded it."""
        with self._cycle_mutex, self.worker.accounting():
            # Holding _cycle_mutex across the SQL round trips is the
            # point: two concurrent cycles would journal and apply the
            # same recommendations twice.
            return self._cycle_locked()  # staticcheck: ignore[LCK004]

    def _cycle_locked(self) -> TuningCycleReport:
        cycle_no = self.worker.cycles + 1
        report = TuningCycleReport(cycle=cycle_no,
                                   dry_run=self.policy.dry_run)
        with self._lock:
            self._mark_failures = 0
        report.recovered = self._recover_locked()
        if self.daemon is not None:
            try:
                self.daemon.poll_once()
                self.daemon.flush()
            except (ReproError, OSError) as error:
                # The daemon records its own failure; the cycle goes on
                # against the history already persisted.
                report.daemon_error = f"{type(error).__name__}: {error}"
        analysis = self.analyzer.analyze_workload_db(self.workload_db)
        report.statements_analyzed = analysis.statements_analyzed
        report.whatif_calls = analysis.whatif_calls
        report.rows_folded = analysis.rows_folded
        report.considered = list(analysis.recommendations)

        database = self.engine.database(self.database_name)
        selection = select_recommendations(
            report.considered, database,
            disk_budget_bytes=self.policy.disk_budget_bytes,
        )
        report.skipped.extend(selection.dropped)
        runnable = self._filter_runnable(selection.selected, report)

        if not self.policy.dry_run and runnable:
            with self.engine.connect(self.database_name) as session:
                for recommendation in runnable:
                    self._apply_journaled(session, database,
                                          recommendation, report,
                                          cycle_no)
        with self._lock:
            report.journal_errors += self._mark_failures
            self.history.append(report)
            del self.history[:-_MAX_HISTORY]
        return report

    def _filter_runnable(self, selected: list[Recommendation],
                         report: TuningCycleReport) -> list[Recommendation]:
        already_applied = self.journal.applied_sqls()
        quarantined = self._quarantined()
        runnable: list[Recommendation] = []
        for recommendation in selected:
            sql = recommendation.to_sql()
            if sql in already_applied:
                report.skipped.append(
                    (recommendation, "already applied in an earlier cycle"))
                continue
            benched = quarantined.get(sql)
            if benched is not None and benched.cooldown_remaining_s > 0:
                reason = (f"quarantined after {benched.failures} failures; "
                          f"retry in {benched.cooldown_remaining_s:.0f}s")
                report.skipped.append((recommendation, reason))
                report.quarantined.append((recommendation, reason))
                continue
            if len(runnable) >= self.policy.max_changes_per_cycle:
                report.skipped.append(
                    (recommendation, "per-cycle change cap reached"))
                continue
            runnable.append(recommendation)
        return runnable

    def _apply_journaled(self, session: "Session", database: "Database",
                         recommendation: Recommendation,
                         report: TuningCycleReport, cycle_no: int) -> None:
        """Journal intent, apply, journal the outcome.

        A journal outage fails *closed*: a change whose intent cannot
        be durably recorded is skipped, because a crash during an
        unjournaled change could never be recovered.
        """
        sql = recommendation.to_sql()
        try:
            undo = undo_sql(recommendation, database)
            entry_id = self.journal.record_intent(
                recommendation, undo, cycle_no)
        except (MonitorError, OSError) as error:
            report.skipped.append(
                (recommendation, f"journal unavailable: {error}"))
            report.journal_errors += 1
            return
        outcome = apply_one(session, recommendation)
        report.applied.append(outcome)
        if outcome.succeeded:
            self._mark(self.journal.mark_applied, entry_id)
            return
        self._mark(self.journal.mark_failed, entry_id, outcome.error)
        benched = self._quarantined().get(sql)
        if benched is not None:
            report.quarantined.append(
                (recommendation,
                 f"quarantined after {benched.failures} failures"))

    # -- health (start/restart/is_alive/stop: WorkerOwner) --------------------

    def status(self) -> TunerStatus:
        """Health snapshot (the shell's ``\\tuner status``)."""
        journal_health = self.journal.health()
        changes_applied = len(self.journal.applied_sqls())
        worker = asdict(self.worker.status())
        return TunerStatus(
            **worker,
            changes_applied=changes_applied,
            quarantined=tuple(status for _sql, status
                              in sorted(self._quarantined().items())),
            journal=journal_health,
        )

    @property
    def total_changes_applied(self) -> int:
        return len(self.journal.applied_sqls())
