"""The shared invariant rules, and a seeded mutation every harness that
relies on them must catch."""

import pytest

from repro.chaos import main as chaos_main
from repro.core.daemon import StorageDaemon
from repro.core.overload import SAMPLED
from repro.invariants import (
    history_violations,
    settled,
    storm_violations,
)
from repro.setups import daemon_setup
from repro.workloads.driver import main as drive_main

WORKLOAD_ROW = (1, 9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                0.0, 0.0, 0, 0, 0, 0, "", 0.0)


def _setup():
    return daemon_setup("nref")


def _row(session_id):
    return (1, session_id, *WORKLOAD_ROW[2:])


class TestHistory:
    def test_rows_without_a_source_seq_are_skipped(self):
        """Rows appended without seqs persist ``src_seq == 0``; they are
        neither duplicates nor out of order."""
        setup = _setup()
        setup.workload_db.append("wl_workload", [WORKLOAD_ROW] * 2,
                                 captured_at=1.0)
        assert history_violations(setup) == []

    def test_persisted_order_is_checked(self):
        setup = _setup()
        setup.workload_db.append("wl_workload", [_row(1), _row(1)],
                                 captured_at=1.0, seqs=[5, 3])
        assert history_violations(setup) == [
            "wl_workload: src_seq 3 persisted after 5 (order broken)"]

    def test_session_without_persisted_rows_is_reported(self):
        setup = _setup()
        assert history_violations(setup, session_ids=[1]) == [
            "wl_workload: no rows persisted for sessions [1]"]

    def test_session_whose_rows_were_deleted_is_reported(self):
        setup = _setup()
        setup.workload_db.append(
            "wl_workload", [_row(1), _row(2), _row(1), _row(3)],
            captured_at=1.0, seqs=[1, 2, 3, 4])
        assert history_violations(setup, session_ids=[1, 2, 3]) == []
        database = setup.workload_db.database
        for rowid in [rowid for rowid, row
                      in database.storage_for("wl_workload").scan()
                      if row[2] == 1]:
            database.delete_row("wl_workload", rowid)
        assert history_violations(setup, session_ids=[1, 2, 3]) == [
            "wl_workload: no rows persisted for sessions [1]"]


class TestStorm:
    def test_undegraded_run_is_settled_but_not_a_storm(self):
        setup = _setup()
        assert settled(setup)
        assert storm_violations(setup, min_peak=SAMPLED) == [
            "storm never forced the monitor to SAMPLED (peak level "
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
