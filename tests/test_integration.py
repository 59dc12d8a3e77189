"""Integration tests: the full control loop and concurrent sessions."""

import threading

from repro.core.analyzer import Analyzer, apply_recommendations
from repro.core.analyzer.recommendations import RecommendationKind
from repro.errors import ReproError
from repro.workloads import (
    NrefScale,
    WorkloadRunner,
    complex_query_set,
    load_nref,
    reference_indexes,
)
from repro.setups import daemon_setup, monitoring_setup
from tests.test_core_monitor import workload_rows


SCALE = NrefScale(proteins=400)


class TestTuningLoop:
    """Monitor -> store -> analyze -> implement -> faster workload:
    the paper's control loop, end to end."""

    def test_full_loop_improves_costs_and_preserves_answers(self):
        setup = daemon_setup("nref")
        db = setup.engine.database("nref")
        load_nref(db, SCALE, main_pages=2)
        session = setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        queries = complex_query_set(SCALE, count=20)

        baseline = runner.run(queries)
        baseline_cost = self._workload_actual_cost(setup)
        cost_after_baseline = baseline_cost
        setup.daemon.poll_once()
        setup.daemon.flush()

        analyzer = Analyzer(db)
        report = analyzer.analyze_workload_db(setup.workload_db)
        assert report.recommendations
        kinds = {r.kind for r in report.recommendations}
        assert RecommendationKind.MODIFY_TO_BTREE in kinds
        assert RecommendationKind.CREATE_STATISTICS in kinds

        applied = apply_recommendations(session, report.recommendations)
        assert all(a.succeeded for a in applied), [
            (a.sql, a.error) for a in applied if not a.succeeded]

        cost_before_tuned_run = self._workload_actual_cost(setup)
        tuned = runner.run(queries)
        # correctness: identical result volume
        assert tuned.rows_returned == baseline.rows_returned
        tuned_cost = (self._workload_actual_cost(setup)
                      - cost_before_tuned_run)
        assert tuned_cost < baseline_cost

    @staticmethod
    def _workload_actual_cost(setup):
        total = 0.0
        for record in workload_rows(setup.monitor):
            total += record.actual_io + record.actual_cpu
        return total

    def test_estimates_converge_after_tuning(self):
        """On the unoptimized database (overflowing heaps, no stats) the
        optimizer's estimates diverge from measured costs; after the
        standard tuning steps (B-Tree + statistics) they align."""
        setup = monitoring_setup()
        db = setup.engine.create_database("nref")
        load_nref(db, SCALE, main_pages=2)
        session = setup.engine.connect("nref")
        sql = ("select count(*) from protein p join organism o "
               "on p.nref_id = o.nref_id where p.tax_id = 1")

        def divergence():
            record = workload_rows(setup.monitor)[-1]
            actual = record.actual_io + record.actual_cpu
            estimated = record.estimated_io + record.estimated_cpu
            return max(actual / max(estimated, 1e-9),
                       estimated / max(actual, 1e-9))

        session.execute(sql)
        divergence_before = divergence()
        for table in ("protein", "organism"):
            session.execute(f"modify {table} to btree")
            session.execute(f"create statistics on {table}")
        session.execute(sql)
        assert divergence() < divergence_before

    def test_analyzer_set_smaller_than_reference_set(self):
        """The paper: 12 recommended indexes vs 33 reference indexes,
        with comparable performance and less disk."""
        setup = daemon_setup("nref")
        db = setup.engine.database("nref")
        load_nref(db, SCALE, main_pages=2)
        session = setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        runner.run(complex_query_set(SCALE, count=30))
        setup.daemon.poll_once()
        setup.daemon.flush()
        report = Analyzer(db).analyze_workload_db(setup.workload_db)
        index_recs = [r for r in report.recommendations
                      if r.kind is RecommendationKind.CREATE_INDEX]
        assert 0 < len(index_recs) < len(reference_indexes())


class TestConcurrency:
    def test_parallel_readers(self):
        setup = monitoring_setup()
        db = setup.engine.create_database("db")
        session = setup.engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        values = ", ".join(f"({i})" for i in range(500))
        session.execute(f"insert into t values {values}")

        results = []
        errors = []

        def reader():
            try:
                with setup.engine.connect("db") as s:
                    for _ in range(10):
                        results.append(
                            s.execute("select count(*) from t").scalar())
            except ReproError as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [500] * 40

    def test_writer_excludes_readers(self):
        setup = monitoring_setup()
        setup.engine.create_database("db")
        writer = setup.engine.connect("db")
        writer.execute("create table t (a int)")
        writer.execute("insert into t values (1)")
        writer.execute("begin")
        writer.execute("update t set a = 2")  # X lock held until commit

        blocked = []

        def reader():
            with setup.engine.connect("db") as s:
                blocked.append(s.execute("select a from t").rows)

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive()  # reader is waiting on the lock
        writer.execute("commit")
        thread.join(timeout=5.0)
        assert blocked == [[(2,)]]

    def test_concurrent_writers_serialize(self):
        setup = monitoring_setup()
        setup.engine.create_database("db")
        session = setup.engine.connect("db")
        session.execute("create table counters (id int not null, n int, "
                        "primary key (id))")
        session.execute("insert into counters values (1, 0)")

        def incrementer():
            with setup.engine.connect("db") as s:
                for _ in range(20):
                    s.execute("update counters set n = n + 1 where id = 1")

        threads = [threading.Thread(target=incrementer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert session.execute(
            "select n from counters where id = 1").scalar() == 80

    def test_lock_statistics_observed_by_monitor(self):
        setup = monitoring_setup()
        setup.engine.create_database("db")
        session = setup.engine.connect("db")
        session.execute("create table t (a int)")
        session.execute("insert into t values (1)")
        stats = setup.engine.system_statistics()
        assert stats["lock_requests"] > 0
