"""Unit tests for configs, errors, records and workload-DB compaction."""

import dataclasses
import typing

import pytest

from repro.clock import VirtualClock
from repro.config import DaemonConfig, EngineConfig
from repro.core.autopilot import TuningPolicy
from repro.core.records import STATISTIC_FIELDS, StatisticsRecord, WorkloadRecord
from repro.core.workload_db import WORKLOAD_TABLES, WorkloadDatabase
from repro.errors import (
    DeadlockError,
    LexerError,
    LockError,
    ParseError,
    ReproError,
    SqlError,
    StorageError,
)


class TestConfig:
    def test_defaults_match_paper(self):
        config = EngineConfig()
        assert config.monitor.statement_buffer_size == 1000  # paper default
        assert config.daemon.poll_interval_s == 30.0          # paper default
        assert config.daemon.retention_s == 7 * 24 * 3600.0   # seven days

    def test_configs_frozen(self):
        config = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.daemon = DaemonConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.monitor.statement_buffer_size = 5

    @staticmethod
    def _settable(cls, prefix=""):
        hints = typing.get_type_hints(cls)
        names = []
        for field in dataclasses.fields(cls):
            name = prefix + field.name
            names.append(name)
            if dataclasses.is_dataclass(hints[field.name]):
                names += TestConfig._settable(hints[field.name], name + ".")
        return names

    def test_settable_surface(self):
        """A value is settable only if something outside the tests runs
        it at another value; a new knob is added here on purpose."""
        assert sorted(self._settable(EngineConfig)) == [
            "daemon",
            "daemon.flush_every_polls",
            "daemon.poll_interval_s",
            "daemon.retention_s",
            "monitor",
            "monitor.overload",
            "monitor.overload.escalate_dwell",
            "monitor.overload.recover_dwell",
            "monitor.overload.sample_k",
            "monitor.statement_buffer_size",
            "monitor.workload_buffer_size",
        ]
        assert sorted(self._settable(TuningPolicy)) == [
            "disk_budget_bytes",
            "dry_run",
            "max_changes_per_cycle",
            "quarantine_cooldown_s",
        ]


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(LexerError, SqlError)
        assert issubclass(ParseError, SqlError)
        assert issubclass(SqlError, ReproError)
        assert issubclass(DeadlockError, LockError)
        assert issubclass(StorageError, ReproError)

    def test_lexer_error_position(self):
        error = LexerError("bad char", position=17)
        assert error.position == 17
        assert "17" in str(error)


class TestRecords:
    def test_statistics_record_as_row(self):
        row = StatisticsRecord(timestamp=5.0, locks_held=3, deadlocks=1)
        assert row[0] == 5.0
        assert len(row) == 1 + len(STATISTIC_FIELDS)
        assert row[1 + STATISTIC_FIELDS.index("locks_held")] == 3
        assert row[1 + STATISTIC_FIELDS.index("deadlocks")] == 1

    def test_workload_record_cost_properties(self):
        record = WorkloadRecord(
            text_hash=1, session_id=1, timestamp=0.0,
            optimize_time_s=0.0, execute_time_s=0.0, wallclock_s=0.0,
            estimated_io=10.0, estimated_cpu=2.0,
            actual_io=20.0, actual_cpu=3.0,
            logical_reads=5, physical_reads=1, tuples_processed=9,
            rows_returned=4, used_indexes="", monitor_time_s=0.0,
        )
        assert record.estimated_cost == 12.0
        assert record.actual_cost == 23.0

    def test_statement_record_bump(self):
        from repro.core.records import StatementRecord
        record = StatementRecord(1, "q", frequency=1, first_seen=1.0,
                                 last_seen=1.0)
        bumped = record.bumped(9.0)
        assert bumped.frequency == 2
        assert bumped.last_seen == 9.0
        assert bumped.first_seen == 1.0
        assert record.frequency == 1  # immutable original


def _fresh_pages(wdb, table):
    """The pages ``table``'s live rows fill when appended, in storage
    order, to an empty table."""
    fresh = WorkloadDatabase()
    fresh.database.insert_rows(
        table, [row for _rid, row in wdb.database.storage_for(table).scan()])
    return fresh.database.storage_for(table).page_count


class TestWorkloadDbCompaction:
    def test_purge_compacts_bloated_tables(self):
        clock = VirtualClock(1000.0)
        wdb = WorkloadDatabase(clock)
        # write a lot of history, all of it old
        for batch in range(50):
            rows = [(f"idx{batch}_{i}", "t", i) for i in range(40)]
            wdb.append("wl_indexes", rows, captured_at=float(batch))
        storage = wdb.database.storage_for("wl_indexes")
        pages_before = storage.page_count
        # the older half goes: the table shrinks to what its rows fill
        assert wdb.purge_older_than(cutoff=25.0) == 1000
        fresh = _fresh_pages(wdb, "wl_indexes")
        assert fresh <= storage.page_count <= fresh + 1 < pages_before
        assert wdb.purge_older_than(cutoff=100.0) == 1000
        assert storage.page_count == 0

    def test_wide_rows_are_never_rebuilt(self):
        # 600-byte plans, purged daily: each purge frees the leading
        # pages the expired day filled, so no rebuild is ever due
        day = 86400.0
        wdb = WorkloadDatabase(VirtualClock(0.0))
        storage = wdb.database.storage_for("wl_plans")
        rebuilds = []
        wdb.database.modify_table = \
            lambda *args, **kwargs: rebuilds.append(args)
        purged = 0
        for today in range(12):
            rows = [(today * 1000 + i, float(i), "p" * 600, today * day)
                    for i in range(200)]
            wdb.append("wl_plans", rows, captured_at=today * day)
            purged += wdb.purge_older_than((today - 3) * day) > 0
            fresh = _fresh_pages(wdb, "wl_plans")
            assert fresh <= storage.page_count <= fresh + 1
        assert purged == 8
        assert rebuilds == []
        assert storage.row_count == 800

    def test_purge_keeps_recent(self):
        wdb = WorkloadDatabase()
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        assert wdb.row_count("wl_indexes") == 1

    def test_all_tables_have_captured_at_first(self):
        for schema in WORKLOAD_TABLES:
            assert schema.columns[0].name == "captured_at"
