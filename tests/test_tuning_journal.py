"""Tests for the tuning journal and the crash-safe autonomous tuner."""

from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro import faultsim
from repro.clock import VirtualClock
from repro.core import autopilot, tuning_journal
from repro.core.autopilot import AutonomousTuner, TuningPolicy
from repro.core.tuning_journal import FailureStreak, JournalState, TuningJournal
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
)
from repro.engine import EngineInstance
from repro.errors import MonitorError
from repro.setups import daemon_setup
from repro.workloads import NrefScale, WorkloadRunner, complex_query_set, load_nref


def stats_rec(table: str) -> Recommendation:
    return Recommendation(RecommendationKind.CREATE_STATISTICS, table)


NREF_SCALE = NrefScale(proteins=300)


def recorded_nref():
    """A daemon setup with NREF loaded and a recorded workload, on a
    virtual clock (cooldown tests advance it)."""
    clock = VirtualClock(1_000_000.0)
    setup = daemon_setup("nref", clock=clock)
    load_nref(setup.engine.database("nref"), NREF_SCALE, main_pages=2)
    session = setup.engine.connect("nref")
    runner = WorkloadRunner(session, keep_per_statement=False)
    runner.run(complex_query_set(NREF_SCALE, count=15))
    return setup, clock


def reborn_tuner(setup, policy=None):
    """A tuner as a restarted process builds it: fresh journal loaded
    from persisted rows, no memory carried over."""
    journal = TuningJournal(setup.workload_db.database, setup.engine.clock)
    return AutonomousTuner(setup.engine, "nref", setup.workload_db,
                           daemon=setup.daemon, policy=policy,
                           journal=journal), journal


class TestJournalBasics:
    @pytest.fixture
    def journal(self, engine):
        database = engine.create_database("jdb")
        return TuningJournal(database, engine.clock)

    def test_transitions_are_appended_rows(self, journal):
        entry_id = journal.record_intent(stats_rec("t"), "", cycle=1)
        journal.mark_applied(entry_id)
        storage = journal.database.storage_for("tuning_journal")
        assert sum(1 for _ in storage.scan()) == 2  # intent + applied
        entries = journal.entries()
        assert len(entries) == 1
        assert entries[0].state is JournalState.APPLIED

    def test_reload_rebuilds_state_and_ids(self, journal):
        first = journal.record_intent(stats_rec("t"), "", cycle=1)
        journal.mark_failed(first, "boom")
        reloaded = TuningJournal(journal.database, journal.clock)
        assert reloaded.entries() == journal.entries()
        assert reloaded.failure_streaks() == journal.failure_streaks()
        second = reloaded.record_intent(stats_rec("u"), "", cycle=2)
        assert second > first

    def test_unknown_entry_rejected(self, journal):
        with pytest.raises(MonitorError):
            journal.mark_applied(999)

    def test_write_failure_counts_and_raises(self, journal):
        faultsim.arm_from_spec("journal.write:every-n,n=1")
        with pytest.raises(MonitorError):
            journal.record_intent(stats_rec("t"), "", cycle=1)
        assert journal.health().write_failures == 1
        assert journal.entries() == ()  # memory never ran ahead of disk

    def test_prune_evicts_terminal_keeps_intent(self, engine, monkeypatch):
        monkeypatch.setattr(tuning_journal, "MAX_ENTRIES", 2)
        database = engine.create_database("jprune")
        journal = TuningJournal(database, engine.clock)
        dangling = journal.record_intent(stats_rec("t0"), "", cycle=1)
        for i in range(1, 5):
            entry_id = journal.record_intent(stats_rec(f"t{i}"), "", cycle=1)
            journal.mark_applied(entry_id)
        entries = journal.entries()
        assert len(entries) <= 3  # MAX_ENTRIES terminal + the intent
        assert any(e.entry_id == dangling for e in entries)
        assert journal.health().entries_pruned > 0
        # the pruned transitions are gone from the table too
        storage = database.storage_for("tuning_journal")
        assert sum(1 for _ in storage.scan()) < 9

    def test_failure_streak_resets_on_success(self, journal):
        rec = stats_rec("t")
        for _ in range(2):
            entry_id = journal.record_intent(rec, "", cycle=1)
            journal.mark_failed(entry_id, "boom")
        assert journal.failure_streaks()[rec.to_sql()][0] == 2
        entry_id = journal.record_intent(rec, "", cycle=2)
        journal.mark_applied(entry_id)
        assert rec.to_sql() not in journal.failure_streaks()

    def test_prune_keeps_a_live_failure_streak(self, engine, monkeypatch):
        """Failures of one statement interleaved with other changes:
        pruning the older entries neither forgets the streak in memory
        nor leaves a reload counting fewer failures."""
        monkeypatch.setattr(tuning_journal, "MAX_ENTRIES", 3)
        database = engine.create_database("jstreak")
        journal = TuningJournal(database, engine.clock)
        poisoned = stats_rec("x")
        for i in range(3):
            entry_id = journal.record_intent(poisoned, "", cycle=i)
            journal.mark_failed(entry_id, f"boom {i}")
            entry_id = journal.record_intent(stats_rec(f"t{i}"), "", cycle=i)
            journal.mark_applied(entry_id)
        assert journal.health().entries_pruned > 0
        streak = journal.failure_streaks()[poisoned.to_sql()]
        assert (streak.count, streak.last_error) == (3, "boom 2")
        reloaded = TuningJournal(database, engine.clock)
        assert reloaded.failure_streaks() == journal.failure_streaks()

    def test_a_failing_statement_does_not_grow_the_journal(self, engine,
                                                            monkeypatch):
        """One statement failing once per cooldown, forever: its streak
        counts up to the quarantine threshold and stops, and only that
        many of its failures are kept from pruning, so the journal stays
        within MAX_ENTRIES and a reload counts what memory counts."""
        monkeypatch.setattr(tuning_journal, "MAX_ENTRIES", 4)
        database = engine.create_database("jforever")
        clock = VirtualClock(1_000.0)
        journal = TuningJournal(database, clock)
        poisoned = stats_rec("x")
        for i in range(20):
            clock.advance(600.0)
            entry_id = journal.record_intent(poisoned, "", cycle=i)
            journal.mark_failed(entry_id, f"boom {i}")
        assert len(journal.entries()) <= 4
        storage = database.storage_for("tuning_journal")
        assert sum(1 for _ in storage.scan()) <= 8
        streak = journal.failure_streaks()[poisoned.to_sql()]
        assert streak == FailureStreak(
            tuning_journal.QUARANTINE_AFTER_FAILURES, clock.now(), "boom 19")
        assert streak.quarantined
        reloaded = TuningJournal(database, clock)
        assert reloaded.failure_streaks() == journal.failure_streaks()


_JOURNAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("intent"), st.integers(0, 2)),
    st.tuples(st.sampled_from([JournalState.APPLIED, JournalState.FAILED,
                               JournalState.ROLLED_BACK]),
              st.integers(0, 5)),
), max_size=24)


@mock.patch.object(tuning_journal, "MAX_ENTRIES", 2)
@settings(max_examples=150, deadline=None)
@given(ops=_JOURNAL_OPS)
# A failure journaled before an older entry's success: the success is
# the later row, so it must not be pruned while the failure stays.
@example(ops=[("intent", 0), ("intent", 0), (JournalState.FAILED, 1),
              (JournalState.APPLIED, 0), ("intent", 1)])
def test_streaks_survive_prune_and_reload(ops):
    """Random intents and outcomes over 3 statements in a 2-entry
    journal: after every write the streaks are exactly what the writes
    themselves imply (a prune never lifts a quarantine), and a reloaded
    journal counts the same streaks as the live one."""
    engine = EngineInstance()
    database = engine.create_database("jprop")
    clock = VirtualClock(1_000.0)
    journal = TuningJournal(database, clock)
    open_entries: list[tuple[int, str]] = []
    for step, (op, arg) in enumerate(ops):
        clock.advance(1.0)
        expected = journal.failure_streaks()
        if op == "intent":
            rec = stats_rec(f"t{arg}")
            open_entries.append(
                (journal.record_intent(rec, "", cycle=step), rec.to_sql()))
        elif open_entries:
            entry_id, sql = open_entries.pop(arg % len(open_entries))
            if op is JournalState.FAILED:
                count = expected[sql].count if sql in expected else 0
                journal.mark_failed(entry_id, f"error {step}")
                expected[sql] = FailureStreak(
                    min(count + 1, tuning_journal.QUARANTINE_AFTER_FAILURES),
                    clock.now(), f"error {step}")
            else:
                if op is JournalState.APPLIED:
                    journal.mark_applied(entry_id)
                else:
                    journal.mark_rolled_back(entry_id)
                expected.pop(sql, None)
        assert journal.failure_streaks() == expected
        reloaded = TuningJournal(database, clock)
        assert reloaded.failure_streaks() == expected


class TestMidBatchFailure:
    def test_second_ddl_fails_report_and_journal_agree(self):
        setup, _clock = recorded_nref()
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        # First change applies, second fails inside the engine.
        faultsim.get_injector().arm("ddl.apply", "once", after=1)
        report = tuner.run_cycle()
        assert len(report.applied) >= 2
        assert report.applied[0].succeeded
        assert not report.applied[1].succeeded
        states = {e.sql: e.state for e in tuner.journal.entries()}
        assert states[report.applied[0].sql] is JournalState.APPLIED
        assert states[report.applied[1].sql] is JournalState.FAILED
        assert tuner.journal.interrupted() == ()  # failure is terminal

        # The next cycle retries only the failed change; the first is
        # remembered as applied and never re-run.
        faultsim.reset()
        second = tuner.run_cycle()
        second_sqls = {a.sql for a in second.applied}
        assert report.applied[0].sql not in second_sqls
        assert report.applied[1].sql in second_sqls

    def test_already_applied_filter_prevents_flapping(self, engine):
        database = engine.create_database("adb")
        session = engine.connect("adb")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1), (2)")
        session.close()
        from repro.core.workload_db import WorkloadDatabase

        class StubAnalyzer:
            def analyze_workload_db(self, _workload_db):
                from types import SimpleNamespace
                return SimpleNamespace(statements_analyzed=0,
                                       whatif_calls=0, rows_folded=0,
                                       recommendations=[stats_rec("t")])

        tuner = AutonomousTuner(
            engine, "adb", WorkloadDatabase(engine.clock),
            analyzer=StubAnalyzer())
        first = tuner.run_cycle()
        assert [a.succeeded for a in first.applied] == [True]
        # The analyzer keeps recommending the same change; the journal
        # remembers it was applied, so the tuner never flaps.
        second = tuner.run_cycle()
        assert second.applied == []
        assert [reason for _r, reason in second.skipped] == \
            ["already applied in an earlier cycle"]

    def test_journal_outage_fails_closed(self):
        setup, _clock = recorded_nref()
        database = setup.engine.database("nref")
        version_before = database.schema_version
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        faultsim.arm_from_spec("journal.write:every-n,n=1")
        report = tuner.run_cycle()
        assert report.applied == []  # nothing ran unjournaled
        assert report.journal_errors > 0
        assert any("journal unavailable" in reason
                   for _r, reason in report.skipped)
        assert database.schema_version == version_before


class TestCrashRecovery:
    def test_lost_mark_rolls_back_with_journaled_undo(self):
        setup, _clock = recorded_nref()
        database = setup.engine.database("nref")
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        # The first change's intent is journaled (eval 1) and its DDL
        # runs, but the applied mark (eval 2) is lost — the classic
        # half-applied crash window.
        faultsim.get_injector().arm("journal.write", "once", after=1)
        report = tuner.run_cycle()
        assert report.applied and report.applied[0].succeeded
        lost = report.applied[0]
        faultsim.reset()

        # "Crash": abandon the tuner, rebuild from persisted state.
        reborn, journal = reborn_tuner(setup)
        interrupted = journal.interrupted()
        assert [e.sql for e in interrupted] == [lost.sql]
        actions = reborn.recover()
        assert actions == [(lost.sql, "rolled back with journaled undo")]
        entry = next(e for e in journal.entries() if e.sql == lost.sql)
        assert entry.state is JournalState.ROLLED_BACK
        if entry.kind == "create index":
            assert not database.catalog.has_index(entry.object_name)
        assert reborn.recover() == []  # replay is idempotent

        # The rolled-back change is fair game again and reapplies.
        second = reborn.run_cycle()
        assert lost.sql in {a.sql for a in second.applied if a.succeeded}

    def test_lost_intent_never_reaches_schema(self):
        setup, _clock = recorded_nref()
        database = setup.engine.database("nref")
        version_before = database.schema_version
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        # The very first journal write dies: fail closed, apply nothing.
        faultsim.get_injector().arm("journal.write", "every-n", n=1)
        report = tuner.run_cycle()
        faultsim.reset()
        assert report.applied == []
        assert database.schema_version == version_before
        reborn, journal = reborn_tuner(setup)
        assert journal.interrupted() == ()
        assert reborn.recover() == []

    def test_statistics_intent_completes_forward(self, engine):
        database = engine.create_database("sdb")
        session = engine.connect("sdb")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1), (2), (3)")
        journal = TuningJournal(database, engine.clock)
        journal.record_intent(stats_rec("t"), "", cycle=1)
        # A workload DB is required by the constructor only; recovery
        # itself touches just the engine and the journal.
        from repro.core.workload_db import WorkloadDatabase
        tuner = AutonomousTuner(engine, "sdb",
                                WorkloadDatabase(engine.clock),
                                journal=journal)
        actions = tuner.recover()
        assert actions == [("create statistics on t",
                            "completed forward (idempotent)")]
        assert database.catalog.table("t").statistics is not None

    def test_lost_recovery_mark_counts_as_journal_error(self):
        """A recovery mark that fails is a journal error of the cycle,
        not the cycle's ``last_error`` (the cycle itself succeeded)."""
        setup = daemon_setup("sdb", clock=VirtualClock(1_000_000.0))
        session = setup.engine.connect("sdb")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1), (2), (3)")
        tuner = AutonomousTuner(setup.engine, "sdb", setup.workload_db,
                                daemon=setup.daemon)
        tuner.journal.record_intent(stats_rec("t"), "", cycle=1)
        # Completed forward, but its applied mark is lost.
        faultsim.arm_from_spec("journal.write:once")
        report = tuner.run_cycle()
        assert report.recovered == [("create statistics on t",
                                     "completed forward (idempotent)")]
        assert report.journal_errors == 1
        assert tuner.journal.health().write_failures == 1
        status = tuner.status()
        assert status.last_error is None
        assert status.failures == 0 and status.cycles == 1


class TestQuarantine:
    def test_three_failures_quarantine_then_cooldown_retry(self):
        setup, clock = recorded_nref()
        policy = TuningPolicy(quarantine_cooldown_s=500.0)
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon, policy=policy)
        faultsim.arm_from_spec("ddl.apply:every-n,n=1")
        failed_sqls = None
        for _ in range(3):
            report = tuner.run_cycle()
            cycle_failed = {a.sql for a in report.applied
                            if not a.succeeded}
            assert cycle_failed
            failed_sqls = cycle_failed if failed_sqls is None \
                else failed_sqls & cycle_failed
        assert failed_sqls  # the same changes failed 3 cycles in a row
        assert report.quarantined  # benched within the third cycle

        # While quarantined the change is skipped with a reason, even
        # though the fault is gone and it would now succeed.
        faultsim.reset()
        benched = tuner.run_cycle()
        reasons = {sql: reason for (r, reason) in benched.skipped
                   for sql in [r.to_sql()]}
        for sql in failed_sqls:
            assert "quarantined after 3 failures" in reasons[sql]
            assert sql not in {a.sql for a in benched.applied}
        status = tuner.status()
        assert {q.sql for q in status.quarantined} >= failed_sqls
        assert all(q.cooldown_remaining_s > 0 for q in status.quarantined)

        # After the cooldown the breaker goes half-open: one retry is
        # allowed and the success clears the breaker.
        clock.advance(501.0)
        retried = tuner.run_cycle()
        applied = {a.sql for a in retried.applied if a.succeeded}
        assert failed_sqls <= applied
        assert tuner.status().quarantined == ()

    def test_quarantine_survives_restart(self, monkeypatch):
        monkeypatch.setattr(tuning_journal, "QUARANTINE_AFTER_FAILURES", 2)
        setup, _clock = recorded_nref()
        policy = TuningPolicy(quarantine_cooldown_s=10_000.0)
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon, policy=policy)
        faultsim.arm_from_spec("ddl.apply:every-n,n=1")
        for _ in range(2):
            report = tuner.run_cycle()
        faultsim.reset()
        assert report.quarantined
        benched_sql = report.quarantined[0][0].to_sql()

        errors = {a.sql: a.error for a in report.applied if not a.succeeded}

        reborn, _journal = reborn_tuner(setup, policy)
        # The restarted tuner shows the engine's own last error.
        assert {q.sql: q.last_error for q in reborn.status().quarantined} \
            == errors
        report = reborn.run_cycle()
        reasons = [reason for r, reason in report.skipped
                   if r.to_sql() == benched_sql]
        assert reasons and "quarantined" in reasons[0]

    def test_failure_with_lost_mark_is_not_counted(self, monkeypatch):
        """The journal is the breaker's only record: a failure whose
        ``failed`` mark could not be written does not count."""
        monkeypatch.setattr(tuning_journal, "QUARANTINE_AFTER_FAILURES", 1)
        setup, _clock = recorded_nref()
        tuner = AutonomousTuner(
            setup.engine, "nref", setup.workload_db, daemon=setup.daemon)
        # The first change fails, and so does its mark (the write after
        # its intent).
        faultsim.get_injector().arm("ddl.apply", "once")
        faultsim.arm_from_spec("journal.write:once,after=1")
        report = tuner.run_cycle()
        assert not report.applied[0].succeeded
        assert report.journal_errors == 1
        assert report.quarantined == []
        assert tuner.journal.failure_streaks() == {}
        assert tuner.status().quarantined == ()


class TestLifecycleAndStatus:
    def test_start_stop_and_double_start_refused(self, monkeypatch):
        monkeypatch.setattr(autopilot, "CYCLE_INTERVAL_S", 3600.0)
        clock_setup = daemon_setup("db")
        session = clock_setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        tuner = AutonomousTuner(clock_setup.engine, "db",
                                clock_setup.workload_db,
                                daemon=clock_setup.daemon)
        tuner.start()
        with pytest.raises(MonitorError):
            tuner.start()
        assert tuner.status().running
        tuner.stop()
        assert not tuner.status().running
        tuner.start()  # restart over a dead thread is fine
        tuner.stop()

    def test_status_counts_cycles_and_journal(self):
        setup, _clock = recorded_nref()
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        tuner.run_cycle()
        status = tuner.status()
        assert status.cycles == 1
        assert status.changes_applied == tuner.total_changes_applied > 0
        assert status.journal.applied == status.changes_applied
        assert status.journal.write_failures == 0
        assert status.journal.last_write_at is not None
