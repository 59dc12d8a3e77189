"""Tests for report rendering, trends and the analyzer orchestrator."""

import pytest

from repro.core.analyzer import Analyzer
from repro.core.analyzer.reports import (
    CostDiagramEntry,
    cost_diagram,
    locks_diagram,
)
from repro.core.analyzer.trends import fit_trend, trends_from_statistics
from repro.core.analyzer.workload_view import StatementProfile
from repro.core.records import StatisticsRecord
from repro.core.sensors import statement_key


def profile(text_hash, actual, estimated):
    return StatementProfile(
        text_hash=text_hash, text=f"q{text_hash}", executions=1,
        total_actual_io=actual, total_estimated_io=estimated,
    )


class TestCostDiagram:
    def test_top_n_selection(self):
        profiles = [profile(i, actual=i * 10.0, estimated=i * 10.0)
                    for i in range(1, 21)]
        diagram = cost_diagram(profiles, top=10)
        assert len(diagram.entries) == 10
        assert diagram.entries[0].label == "Q1"
        assert diagram.entries[0].actual_cost == 200.0  # most expensive

    def test_virtual_costs_applied(self):
        profiles = [profile(1, actual=100.0, estimated=100.0)]
        diagram = cost_diagram(profiles, virtual_costs={1: 10.0})
        assert diagram.entries[0].virtual_estimated_cost == 10.0

    def test_divergence_marker(self):
        entry = CostDiagramEntry("Q1", "q", actual_cost=100.0,
                                 estimated_cost=10.0,
                                 virtual_estimated_cost=10.0)
        assert entry.divergent
        ok = CostDiagramEntry("Q2", "q", 100.0, 90.0, 90.0)
        assert not ok.divergent

    def test_render(self):
        diagram = cost_diagram([profile(1, 100.0, 10.0)])
        text = diagram.render()
        assert "Q1" in text
        assert "actual" in text
        assert "collect statistics" in text

    def test_render_empty(self):
        assert "no statements" in cost_diagram([]).render()


class TestLocksDiagram:
    def rows(self):
        samples = [
            StatisticsRecord(timestamp=t, locks_held=held,
                             lock_waits=waits, deadlocks=deadlocks)
            for t, held, waits, deadlocks in [
                (1.0, 5, 0, 0),
                (2.0, 10, 2, 0),
                (3.0, 3, 2, 1),
            ]
        ]
        return samples  # a record's fields are its sample's

    def test_events_are_differentiated(self):
        diagram = locks_diagram(self.rows())
        assert diagram.wait_events == [(2.0, 2)]
        assert diagram.deadlock_events == [(3.0, 1)]

    def test_render_contains_markers(self):
        text = locks_diagram(self.rows()).render()
        assert "W" in text
        assert "D!" in text
        assert "deadlocks: 1" in text

    def test_render_empty(self):
        assert "no statistics" in locks_diagram([]).render()


class TestTrends:
    def test_fit_line(self):
        points = [(float(t), 2.0 * t + 5.0) for t in range(10)]
        trend = fit_trend("x", points)
        assert trend.slope_per_second == pytest.approx(2.0)
        assert trend.r_squared == pytest.approx(1.0)
        assert trend.rising

    def test_fit_needs_two_points(self):
        assert fit_trend("x", [(1.0, 2.0)]) is None
        assert fit_trend("x", []) is None
        assert fit_trend("x", [(1.0, 2.0), (1.0, 3.0)]) is None

    def test_flat_series(self):
        trend = fit_trend("x", [(float(t), 7.0) for t in range(5)])
        assert trend.slope_per_second == pytest.approx(0.0)
        assert not trend.rising

    def test_trends_from_statistics(self):
        rows = [StatisticsRecord(timestamp=float(t),
                                 locks_held=t * 3,
                                 current_sessions=2)
                for t in range(6)]
        trends = trends_from_statistics(rows)
        assert trends["locks_held"].slope_per_second == pytest.approx(3.0)
        assert trends["current_sessions"].slope_per_second == \
            pytest.approx(0.0)

    def test_noisy_trend_filtered_by_r_squared(self):
        points = [(0.0, 0.0), (1.0, 100.0), (2.0, -50.0), (3.0, 80.0),
                  (4.0, 10.0)]
        trend = fit_trend("x", points)
        assert trend.r_squared < 0.5


class TestAnalyzerOrchestration:
    def test_analyze_workload_db_end_to_end(self, fresh_nref_setup):
        setup = fresh_nref_setup
        session = setup.engine.connect("nref")
        for tax in (90, 91, 92):
            session.execute(
                f"select name from protein where tax_id = {tax}")
        session.execute(
            "select p.name from protein p join organism o "
            "on p.nref_id = o.nref_id where o.tax_id = 5")
        setup.daemon.poll_once()
        setup.daemon.flush()
        analyzer = Analyzer(setup.engine.database("nref"))
        report = analyzer.analyze_workload_db(setup.workload_db)
        # Two shapes plus the daemon session's own poll statements: the
        # three tax_id texts are one statement executed three times.
        assert report.statements_analyzed >= 2
        profile = report.view.statements[
            statement_key("select name from protein where tax_id = 90")]
        assert profile.executions == 3
        assert profile.text.endswith("tax_id = 90")  # first seen
        assert report.findings.overflow_tables  # unoptimized heaps overflow
        text = report.render_text()
        assert "ANALYZER REPORT" in text
        assert "RECOMMENDATIONS" in text


class TestStatisticsRowShapes:
    """trends and the locks diagram find ``ts`` and the counters by
    column name in all three shapes a statistics row is recorded in."""

    @pytest.fixture(scope="class")
    def shapes(self):
        from repro import daemon_setup, original_setup
        from repro.clock import VirtualClock
        from repro.core.analyzer.workload_view import view_from_workload_db

        clock = VirtualClock(start=1000.0)
        setup = daemon_setup("db", clock=clock)
        with setup.engine.connect("db") as session:
            session.execute("create table t (a int)")
            for i in range(6):
                for _ in range(i + 1):  # lock requests grow per sample
                    session.execute(f"insert into t values ({i})")
                clock.advance(5.0)
            setup.daemon.poll_once()
            setup.daemon.flush()
            ima = session.execute("select * from ima_statistics").rows
        reader = original_setup()
        reader.engine.attach_database(setup.workload_db.database)
        with reader.engine.connect(setup.workload_db.database.name) as session:
            persisted = session.execute("select * from wl_statistics").rows
        samples = view_from_workload_db(setup.workload_db).statistics
        assert len(ima) == len(persisted) == len(samples) >= 5
        return {"ima_statistics": ima, "wl_statistics": persisted,
                "WorkloadView.statistics": samples}

    def test_sql_rows_agree_with_the_view(self, shapes):
        expected_trends = trends_from_statistics(
            shapes["WorkloadView.statistics"])
        expected_locks = locks_diagram(shapes["WorkloadView.statistics"])
        requests = expected_trends["lock_requests"]
        assert requests.first_timestamp == 1000.0  # a ts, not a counter
        assert requests.rising and requests.last_value > 6
        for name in ("ima_statistics", "wl_statistics"):
            assert trends_from_statistics(shapes[name]) == expected_trends
            assert locks_diagram(shapes[name]).samples == \
                expected_locks.samples

    def test_src_seq_is_not_read_as_a_counter(self, shapes):
        # the bug: row[-13:] of a wl_statistics row took current_sessions
        # for the timestamp and src_seq for physical_writes
        persisted = shapes["wl_statistics"]
        assert persisted[-1][-1] > 0  # src_seq, grows by sample
        trend = trends_from_statistics(persisted)["physical_writes"]
        assert trend.last_value == persisted[-1][-2]
        assert trend.last_timestamp == persisted[-1][1]

    def test_other_shapes_are_rejected(self, shapes):
        from repro.errors import AnalyzerError
        row = shapes["wl_statistics"][0]
        for bad in (row[:-3], row + (0,), ()):
            with pytest.raises(AnalyzerError, match="not a statistics row"):
                trends_from_statistics([bad])
            with pytest.raises(AnalyzerError, match="not a statistics row"):
                locks_diagram([bad])
