"""Tests for recommendation selection and the autonomous tuner."""

import pytest

from repro.core.analyzer.dependencies import select_recommendations
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
)
from repro.core.autopilot import AutonomousTuner, TuningPolicy
from repro.workloads import NrefScale, WorkloadRunner, complex_query_set


def index_rec(table, columns, benefit=100.0, name=None):
    return Recommendation(
        kind=RecommendationKind.CREATE_INDEX,
        table_name=table, columns=tuple(columns),
        index_name=name or f"idx_{table}_{'_'.join(columns)}",
        estimated_benefit=benefit,
    )


def stats_rec(table):
    return Recommendation(RecommendationKind.CREATE_STATISTICS, table)


def modify_rec(table):
    return Recommendation(RecommendationKind.MODIFY_TO_BTREE, table)


class TestDependencyGraph:
    """Interactions between recommendations, judged by what the
    selection keeps and drops."""

    def test_subsumption_detected(self):
        wide = index_rec("t", ("a", "b"))
        narrow = index_rec("t", ("a",))
        result = select_recommendations([wide, narrow])
        assert result.dropped == [(narrow, "subsumed by index on (a, b)")]

    def test_non_prefix_not_subsumed(self):
        result = select_recommendations([
            index_rec("t", ("a", "b")),
            index_rec("t", ("b",)),
        ])
        assert len(result.selected) == 2
        assert result.dropped == []

    def test_equal_width_not_subsumed(self):
        result = select_recommendations([
            index_rec("t", ("a",), name="first"),
            index_rec("t", ("a",), name="second"),
        ])
        assert [r.index_name for r in result.selected] == ["first", "second"]
        assert result.dropped == []

    def test_different_tables_not_subsumed(self):
        result = select_recommendations([
            index_rec("t", ("a", "b")),
            index_rec("u", ("a",)),
        ])
        assert len(result.selected) == 2
        assert result.dropped == []

    def test_pk_index_redundant_with_modify(self, fresh_nref_setup):
        database = fresh_nref_setup.engine.database("nref")
        pk_index = index_rec("protein", ("nref_id",))
        result = select_recommendations(
            [modify_rec("protein"), pk_index], database)
        assert [r.kind for r in result.selected] == \
            [RecommendationKind.MODIFY_TO_BTREE]
        assert result.dropped == [(pk_index,
                                   "redundant with MODIFY TO BTREE")]

    def test_pk_index_kept_without_database(self):
        result = select_recommendations([
            modify_rec("protein"),
            index_rec("protein", ("nref_id",)),
        ])
        assert len(result.selected) == 2

    def test_index_bytes_estimated(self, fresh_nref_setup):
        database = fresh_nref_setup.engine.database("nref")
        result = select_recommendations(
            [index_rec("protein", ("tax_id",))], database)
        assert len(result.selected) == 1
        assert result.estimated_index_bytes > 0
        assert select_recommendations(
            [index_rec("protein", ("tax_id",))]).estimated_index_bytes == 0


class TestSelection:
    def test_subsumed_index_dropped(self):
        result = select_recommendations([
            index_rec("t", ("a", "b"), benefit=100.0),
            index_rec("t", ("a",), benefit=50.0),
        ])
        assert [r.columns for r in result.selected] == [("a", "b")]
        assert result.dropped[0][0].columns == ("a",)

    def test_high_value_narrow_index_survives(self):
        result = select_recommendations([
            index_rec("t", ("a", "b"), benefit=10.0),
            index_rec("t", ("a",), benefit=500.0),
        ])
        assert len(result.selected) == 2
        assert result.dropped == []

    def test_benefit_threshold(self):
        result = select_recommendations(
            [index_rec("t", ("a",), benefit=5.0)], min_benefit=10.0)
        assert not result.selected
        assert result.dropped[0][1] == "benefit 5.0 below threshold 10.0"

    def test_disk_budget_enforced(self, fresh_nref_setup):
        database = fresh_nref_setup.engine.database("nref")
        recommendations = [
            index_rec("protein", ("tax_id",), benefit=100.0),
            index_rec("sequence", ("crc",), benefit=1.0),
        ]
        footprints = [
            select_recommendations([r], database).estimated_index_bytes
            for r in recommendations]
        tight_budget = min(footprints) + 1
        result = select_recommendations(recommendations, database,
                                        disk_budget_bytes=tight_budget)
        # the benefit-per-byte winner got the budget
        assert [r.table_name for r in result.selected] == ["protein"]
        assert result.estimated_index_bytes == footprints[0]
        assert [(r.table_name, reason.startswith("disk budget exhausted"))
                for r, reason in result.dropped] == [("sequence", True)]

    def test_non_index_recommendations_always_kept(self):
        result = select_recommendations([
            stats_rec("t"), modify_rec("u"),
        ], disk_budget_bytes=0, min_benefit=1e9)
        assert len(result.selected) == 2
        assert result.dropped == []

    def test_drop_order_follows_the_rules(self, fresh_nref_setup):
        """Subsumption, then MODIFY redundancy, then the benefit
        threshold, then the budget — whatever the input order."""
        database = fresh_nref_setup.engine.database("nref")
        cheap = index_rec("organism", ("tax_id",), benefit=2.0)
        over_budget = index_rec("sequence", ("crc",), benefit=6.0)
        pk_index = index_rec("protein", ("nref_id",))
        narrow = index_rec("protein", ("tax_id",), benefit=10.0)
        wide = index_rec("protein", ("tax_id", "name"), benefit=10.0)
        result = select_recommendations(
            [cheap, over_budget, pk_index, narrow, wide,
             modify_rec("protein")],
            database, disk_budget_bytes=select_recommendations(
                [wide], database).estimated_index_bytes,
            min_benefit=5.0)
        assert [r for r, _reason in result.dropped] == \
            [narrow, pk_index, cheap, over_budget]
        assert [r.kind for r in result.selected] == \
            [RecommendationKind.MODIFY_TO_BTREE,
             RecommendationKind.CREATE_INDEX]

    def test_application_order_safe(self):
        result = select_recommendations([
            stats_rec("t"),
            index_rec("t", ("a",)),
            modify_rec("t"),
        ])
        kinds = [r.kind for r in result.selected]
        assert kinds == [RecommendationKind.MODIFY_TO_BTREE,
                         RecommendationKind.CREATE_INDEX,
                         RecommendationKind.CREATE_STATISTICS]


class TestAutonomousTuner:
    @pytest.fixture
    def recorded_setup(self, fresh_nref_setup):
        setup = fresh_nref_setup
        session = setup.engine.connect("nref")
        runner = WorkloadRunner(session, keep_per_statement=False)
        runner.run(complex_query_set(NrefScale(proteins=300), count=15))
        return setup

    def test_cycle_applies_changes(self, recorded_setup):
        setup = recorded_setup
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        report = tuner.run_cycle()
        assert report.cycle == 1
        assert report.considered
        assert report.applied_count > 0
        assert tuner.total_changes_applied == report.applied_count
        assert "autonomous tuning cycle" in report.describe()

    def test_second_cycle_does_not_repeat(self, recorded_setup):
        setup = recorded_setup
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon)
        first = tuner.run_cycle()
        second = tuner.run_cycle()
        first_sqls = {a.sql for a in first.applied if a.succeeded}
        second_sqls = {a.sql for a in second.applied if a.succeeded}
        assert not (first_sqls & second_sqls)

    def test_dry_run_applies_nothing(self, recorded_setup):
        setup = recorded_setup
        database = setup.engine.database("nref")
        version_before = database.schema_version
        tuner = AutonomousTuner(setup.engine, "nref", setup.workload_db,
                                daemon=setup.daemon,
                                policy=TuningPolicy(dry_run=True))
        report = tuner.run_cycle()
        assert report.considered
        assert report.applied == []
        assert database.schema_version == version_before

    def test_structure_changes_can_be_disabled(self, recorded_setup):
        setup = recorded_setup
        tuner = AutonomousTuner(
            setup.engine, "nref", setup.workload_db, daemon=setup.daemon,
            policy=TuningPolicy(allow_structure_changes=False))
        report = tuner.run_cycle()
        applied_kinds = {a.recommendation.kind for a in report.applied}
        assert RecommendationKind.MODIFY_TO_BTREE not in applied_kinds
        assert any("structure changes disabled" in reason
                   for _r, reason in report.skipped)

    def test_change_cap(self, recorded_setup):
        setup = recorded_setup
        tuner = AutonomousTuner(
            setup.engine, "nref", setup.workload_db, daemon=setup.daemon,
            policy=TuningPolicy(max_changes_per_cycle=2))
        report = tuner.run_cycle()
        assert len(report.applied) <= 2
