"""Tests for the multi-session traffic driver and its end-to-end
persistence invariant checks."""

import pytest

from repro.core.monitor import MonitorSensors
from repro.setups import daemon_setup, monitoring_setup
from repro.workloads import (
    NrefScale,
    ThreadedDriver,
    load_nref,
    point_query_statements,
    run_thread_mode,
    verify_persisted_invariants,
)
from repro.workloads.driver import main as driver_main


def _nref_engine(proteins: int = 20):
    setup = monitoring_setup()
    setup.engine.create_database("nref")
    scale = NrefScale(proteins=proteins)
    load_nref(setup.engine.database("nref"), scale)
    return setup, scale


class TestThreadedDriver:
    def test_pass_runs_every_session_list(self):
        setup, scale = _nref_engine()
        lists = [point_query_statements(12, scale, seed=100 + i)
                 for i in range(5)]
        driver = ThreadedDriver(setup.engine, "nref", lists)
        try:
            report = driver.run_pass()
        finally:
            driver.close()
        assert report.sessions == 5
        assert report.statements == 60
        assert report.errors == 0
        assert report.wallclock_s > 0
        assert len(report.per_session) == 5
        assert all(r.statements == 12 for r in report.per_session)

    def test_sessions_attributed_in_the_workload_ring(self):
        setup, scale = _nref_engine()
        lists = [point_query_statements(6, scale, seed=200 + i)
                 for i in range(4)]
        driver = ThreadedDriver(setup.engine, "nref", lists)
        try:
            driver.run_pass()
            recorded = [r.session_id
                        for r in setup.monitor.workload.values()]
            for session in driver.sessions:
                assert recorded.count(session.session_id) == 6
        finally:
            driver.close()

    def test_empty_statement_lists_rejected(self):
        setup, _scale = _nref_engine()
        with pytest.raises(ValueError):
            ThreadedDriver(setup.engine, "nref", [])

    def test_worker_exception_propagates(self):
        setup, scale = _nref_engine()
        lists = [point_query_statements(3, scale),
                 ["select broken from nowhere"]]
        driver = ThreadedDriver(setup.engine, "nref", lists)
        try:
            with pytest.raises(Exception):
                driver.run_pass()
        finally:
            driver.close()


class TestThreadMode:
    def test_check_passes_on_clean_run(self):
        report, violations = run_thread_mode(
            sessions=5, statements_per_session=15, proteins=20, check=True)
        assert violations == []
        assert report.statements == 75
        assert report.errors == 0

    def test_verifier_flags_duplicate_src_seq(self):
        setup = daemon_setup("nref")
        scale = NrefScale(proteins=10)
        load_nref(setup.engine.database("nref"), scale)
        driver = ThreadedDriver(
            setup.engine, "nref",
            [point_query_statements(4, scale, seed=300 + i)
             for i in range(2)])
        try:
            driver.run_pass()
            # Corrupt the history: persist one workload row twice under
            # the same src_seq.
            seq = 10**6
            row = (1, 9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                   0.0, 0.0, 0, 0, 0, 0, "", 0.0)
            setup.workload_db.append(
                "wl_workload", [row, row],
                captured_at=setup.engine.clock.now(), seqs=[seq, seq])
            violations = verify_persisted_invariants(
                setup, driver.session_ids)
        finally:
            driver.close()
        assert any("duplicate src_seq" in v for v in violations)

    def test_verifier_flags_misattributed_session(self):
        setup = daemon_setup("nref")
        scale = NrefScale(proteins=10)
        load_nref(setup.engine.database("nref"), scale)
        # Corrupt the attribution: every statement of session 1 is
        # recorded as session 999's.
        sensors = MonitorSensors(setup.monitor)
        real = sensors.execute_complete

        def misattribute(statement, text, session_id, *args):
            return real(statement, text,
                        999 if session_id == 1 else session_id, *args)

        sensors.execute_complete = misattribute
        setup.engine.sensors = sensors
        driver = ThreadedDriver(
            setup.engine, "nref",
            [point_query_statements(4, scale, seed=400 + i)
             for i in range(2)])
        try:
            driver.run_pass()
            violations = verify_persisted_invariants(
                setup, driver.session_ids)
        finally:
            driver.close()
        assert driver.session_ids[0] == 1
        assert violations == [
            "wl_workload: no rows persisted for sessions [1]"]


class TestDriverCli:
    def test_thread_mode_with_check_exits_zero(self, capsys):
        code = driver_main(["--sessions", "3", "--statements", "8",
                            "--proteins", "12", "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"violations": []' in out
        assert '"sessions": 3' in out
