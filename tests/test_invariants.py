"""The shared invariant rules, and a seeded mutation every harness that
relies on them must catch."""

import pytest

from repro.chaos import main as chaos_main
from repro.config import EngineConfig, MonitorConfig
from repro.core.daemon import StorageDaemon
from repro.core.overload import SAMPLED
from repro.core.sharding import encode_seq
from repro.invariants import (
    history_violations,
    settled,
    storm_violations,
)
from repro.setups import daemon_setup
from repro.workloads.driver import main as drive_main

WORKLOAD_ROW = (1, 9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                0.0, 0.0, 0, 0, 0, 0, "", 0.0)


def _sharded_setup(shard_count=2):
    return daemon_setup("nref", config=EngineConfig(
        monitor=MonitorConfig(shard_count=shard_count)))


class TestHistory:
    def test_rows_without_a_source_seq_are_skipped(self):
        """Rows appended without seqs persist ``src_seq == 0``; they are
        neither duplicates nor misattributed."""
        setup = _sharded_setup()
        setup.workload_db.append("wl_workload", [WORKLOAD_ROW] * 2,
                                 captured_at=1.0)
        assert history_violations(setup) == []

    def test_order_per_shard_is_checked(self):
        setup = _sharded_setup()
        row = (1, 0, *WORKLOAD_ROW[2:])  # session 0 -> shard 0
        setup.workload_db.append(
            "wl_workload", [row, row], captured_at=1.0,
            seqs=[encode_seq(5, 0), encode_seq(3, 0)])
        assert history_violations(setup) == [
            f"wl_workload: shard 0 src_seq {encode_seq(3, 0)} persisted "
            f"after {encode_seq(5, 0)} (order broken)"]

    def test_session_without_persisted_rows_is_reported(self):
        setup = _sharded_setup()
        assert history_violations(setup, session_ids=[1]) == [
            "wl_workload: no rows persisted for shards [1]"]


class TestStorm:
    def test_undegraded_run_is_settled_but_not_a_storm(self):
        setup = _sharded_setup()
        assert settled(setup)
        assert storm_violations(setup, min_peak=SAMPLED) == [
            "storm never forced any shard to SAMPLED (peak level "
            "DETAILED) — not a storm"]


@pytest.fixture
def duplicating_flush(monkeypatch):
    """Seeded fault: the first daemon flush with workload rows pending
    persists one of them twice."""
    original = StorageDaemon._flush_locked
    fired = []

    def flush_locked(self):
        if not fired:
            with self._lock:
                pending = self._pending["wl_workload"]
                if pending:
                    pending.append(pending[0])
                    fired.append(True)
        return original(self)

    monkeypatch.setattr(StorageDaemon, "_flush_locked", flush_locked)
    return fired


@pytest.mark.parametrize("harness", [
    pytest.param(lambda: chaos_main(["--seed", "1", "--rounds", "2"]),
                 id="chaos"),
    pytest.param(lambda: drive_main(["--sessions", "3", "--statements",
                                     "8", "--proteins", "12", "--check"]),
                 id="drive-check"),
])
def test_duplicated_flush_row_is_caught(harness, duplicating_flush, capsys):
    assert harness() == 1
    assert duplicating_flush  # the fault did fire
    assert "wl_workload: duplicate src_seq" in capsys.readouterr().err
