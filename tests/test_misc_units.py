"""Unit tests for configs, errors, records and workload-DB compaction."""

import dataclasses

import pytest

from repro.clock import VirtualClock
from repro.config import (
    CostModelConfig,
    DaemonConfig,
    EngineConfig,
    LockConfig,
    MonitorConfig,
    StorageConfig,
)
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
            config.join_dp_threshold = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.monitor.statement_buffer_size = 5

    def test_sub_configs_composable(self):
        config = EngineConfig(
            storage=StorageConfig(page_size=1024),
            cost_model=CostModelConfig(io_page_cost=10.0),
            locks=LockConfig(wait_timeout_s=1.0),
            monitor=MonitorConfig(statement_buffer_size=5),
            daemon=DaemonConfig(poll_interval_s=1.0),
        )
        assert config.storage.page_size == 1024
        assert config.cost_model.io_page_cost == 10.0


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


class TestWorkloadDbCompaction:
    def test_purge_compacts_bloated_tables(self):
        clock = VirtualClock(1000.0)
        wdb = WorkloadDatabase(EngineConfig(), clock)
        # write a lot of history, all of it old
        for batch in range(50):
            rows = [(f"idx{batch}_{i}", "t", i) for i in range(40)]
            wdb.append("wl_indexes", rows, captured_at=float(batch))
        pages_before = wdb.database.storage_for("wl_indexes").page_count
        removed = wdb.purge_older_than(cutoff=100.0)
        assert removed == 2000
        pages_after = wdb.database.storage_for("wl_indexes").page_count
        assert pages_after < pages_before

    def test_purge_keeps_recent(self):
        wdb = WorkloadDatabase(EngineConfig())
        wdb.append("wl_indexes", [("new", "t", 1)], captured_at=500.0)
        assert wdb.purge_older_than(100.0) == 0
        assert wdb.row_count("wl_indexes") == 1

    def test_all_tables_have_captured_at_first(self):
        for schema in WORKLOAD_TABLES:
            assert schema.columns[0].name == "captured_at"
