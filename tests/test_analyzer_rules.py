"""Tests for the analyzer's rule engine and workload view."""

import pytest

from repro.core.analyzer.recommendations import RecommendationKind
from repro.core import monitor as monitor_module
from repro.core.analyzer import rules
from repro.core.analyzer.rules import run_rules
from repro.core.analyzer.workload_view import (
    StatementProfile,
    TableProfile,
    WorkloadView,
    view_from_monitor,
    view_from_workload_db,
)


def profile(text_hash, actual, estimated, executions=2, tables=()):
    p = StatementProfile(text_hash=text_hash, text=f"select {text_hash}",
                         executions=executions,
                         total_actual_io=actual * executions,
                         total_estimated_io=estimated * executions)
    p.referenced_tables.update(tables)
    return p


class TestCostDivergenceRule:
    def test_divergent_statement_flagged(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=1000.0, estimated=100.0,
                                     tables=("protein",))
        findings = run_rules(view)
        assert findings.divergent_statements == [1]
        assert findings.tables_needing_statistics == ["protein"]
        kinds = [r.kind for r in findings.recommendations]
        assert RecommendationKind.CREATE_STATISTICS in kinds

    def test_accurate_estimates_not_flagged(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=100.0, estimated=95.0,
                                     tables=("protein",))
        findings = run_rules(view)
        assert findings.divergent_statements == []

    def test_cheap_statements_ignored(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=5.0, estimated=0.5,
                                     tables=("protein",))
        findings = run_rules(view)
        assert findings.divergent_statements == []  # below noise floor

    def test_overestimates_also_flagged(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=100.0, estimated=1000.0,
                                     tables=("t",))
        findings = run_rules(view)
        assert findings.divergent_statements == [1]

    def test_min_executions_threshold(self, monkeypatch):
        monkeypatch.setattr(rules, "MIN_EXECUTIONS", 2)
        view = WorkloadView()
        view.statements[1] = profile(1, actual=1000.0, estimated=10.0,
                                     executions=1, tables=("t",))
        findings = run_rules(view)
        assert findings.divergent_statements == []

    def test_fresh_statistics_suppress_recommendation(self, fresh_nref_setup):
        db = fresh_nref_setup.engine.database("nref")
        db.collect_statistics("protein")
        view = WorkloadView()
        view.statements[1] = profile(1, actual=1000.0, estimated=100.0,
                                     tables=("protein",))
        findings = run_rules(view, database=db)
        assert findings.divergent_statements == [1]
        assert "protein" not in findings.tables_needing_statistics


class TestMisestimatedNodes:
    """A statement whose captured plan counted its nodes' rows is judged
    by them: divergent for the columns whose estimate missed ≥ 4×."""

    def test_a_missed_node_names_its_columns_and_table(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=100.0, estimated=100.0,
                                     tables=("protein", "source"))
        view.plans[1] = "HashJoin ...\nrow misses: source.source_name:20"
        findings = run_rules(view)
        assert findings.divergent_statements == [1]
        assert findings.misestimated == {1: ("source.source_name",)}
        assert findings.tables_needing_statistics == ["source"]

    def test_nodes_within_bounds_outweigh_the_costs(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=1000.0, estimated=100.0,
                                     tables=("protein",))
        view.plans[1] = "SeqScan ...\nrow misses:"
        findings = run_rules(view)
        assert findings.divergent_statements == []
        assert findings.misestimated == {1: ()}
        assert findings.tables_needing_statistics == []

    def test_the_workload_names_its_misestimates(self, fresh_nref_setup,
                                                 monkeypatch):
        """On NREF without statistics, a filter on ``source_name`` and one
        on ``rank`` miss, while the joins estimate within 4×: statistics
        are recommended for ``source`` and ``taxonomy``, not for the
        other tables the statements read."""
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 1.0)
        setup = fresh_nref_setup
        session = setup.engine.connect("nref")
        for text in (
                "select p.name, p.length from protein p join source src "
                "on p.source_id = src.source_id where src.source_name = "
                "'PDB' and p.length > 104 order by p.length desc",
                "select t.lineage, count(*) cnt from organism o join "
                "taxonomy t on o.tax_id = t.tax_id where t.rank = 'genus' "
                "group by t.lineage"):
            session.execute(text)
        setup.daemon.poll_once()
        setup.daemon.flush()
        view = view_from_workload_db(setup.workload_db)
        findings = run_rules(view, setup.engine.database("nref"))
        missed = {name for names in findings.misestimated.values()
                  for name in names}
        assert {"source.source_name", "taxonomy.rank"} <= missed
        assert not any(name.startswith(("organism.", "protein."))
                       for name in missed)
        assert findings.tables_needing_statistics == ["source", "taxonomy"]


class TestOverflowRule:
    def test_overflow_table_flagged(self):
        view = WorkloadView()
        view.tables["t"] = TableProfile("t", structure="heap",
                                        data_pages=100, overflow_pages=30)
        findings = run_rules(view)
        assert findings.overflow_tables == ["t"]
        modify = [r for r in findings.recommendations
                  if r.kind is RecommendationKind.MODIFY_TO_BTREE]
        assert modify and modify[0].table_name == "t"

    def test_below_threshold_not_flagged(self):
        view = WorkloadView()
        view.tables["t"] = TableProfile("t", structure="heap",
                                        data_pages=100, overflow_pages=5)
        assert run_rules(view).overflow_tables == []

    def test_btree_tables_never_flagged(self):
        view = WorkloadView()
        view.tables["t"] = TableProfile("t", structure="btree",
                                        data_pages=100, overflow_pages=90)
        assert run_rules(view).overflow_tables == []

    def test_threshold_configurable(self, monkeypatch):
        view = WorkloadView()
        view.tables["t"] = TableProfile("t", structure="heap",
                                        data_pages=100, overflow_pages=15)
        assert run_rules(view).overflow_tables == ["t"]
        monkeypatch.setattr(rules, "OVERFLOW_RATIO", 0.5)
        assert run_rules(view).overflow_tables == []


class TestHistogramRule:
    def test_missing_histograms_recommended(self):
        view = WorkloadView()
        view.attributes_without_histograms.add(("protein", "tax_id"))
        findings = run_rules(view)
        assert findings.attributes_needing_histograms == [("protein",
                                                           "tax_id")]
        stats_recs = [r for r in findings.recommendations
                      if r.kind is RecommendationKind.CREATE_STATISTICS]
        assert stats_recs[0].columns == ("tax_id",)

    def test_column_rec_skipped_when_table_rec_exists(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=1000.0, estimated=10.0,
                                     tables=("protein",))
        view.attributes_without_histograms.add(("protein", "tax_id"))
        findings = run_rules(view)
        stats_recs = [r for r in findings.recommendations
                      if r.kind is RecommendationKind.CREATE_STATISTICS]
        assert len(stats_recs) == 1  # whole-table stats covers the column
        assert stats_recs[0].columns == ()


class TestWorkloadViews:
    def test_view_from_monitor(self, fresh_nref_setup):
        setup = fresh_nref_setup
        session = setup.engine.connect("nref")
        session.execute("select count(*) from protein where tax_id = 1")
        view = view_from_monitor(setup.monitor,
                                 setup.engine.database("nref"))
        assert len(view.statements) >= 1
        some = next(iter(view.statements.values()))
        assert some.executions == 1
        assert "protein" in view.tables
        assert ("protein", "tax_id") in view.attributes_without_histograms

    def test_view_from_workload_db(self, fresh_nref_setup):
        setup = fresh_nref_setup
        session = setup.engine.connect("nref")
        session.execute("select count(*) from protein")
        session.execute("select count(*) from protein")
        setup.daemon.poll_once()
        setup.daemon.flush()
        view = view_from_workload_db(setup.workload_db)
        target = [p for p in view.statements.values()
                  if p.text == "select count(*) from protein"]
        assert target
        assert target[0].executions == 2
        assert target[0].frequency == 2
        assert "protein" in target[0].referenced_tables
        assert view.tables["protein"].structure == "heap"

    def test_top_statements_ranking(self):
        view = WorkloadView()
        view.statements[1] = profile(1, actual=10.0, estimated=10.0)
        view.statements[2] = profile(2, actual=500.0, estimated=10.0)
        top = view.top_statements(count=1)
        assert top[0].text_hash == 2

    def test_cost_divergence_property(self):
        p = profile(1, actual=400.0, estimated=100.0)
        assert p.cost_divergence == pytest.approx(4.0)
        q = profile(2, actual=100.0, estimated=400.0)
        assert q.cost_divergence == pytest.approx(4.0)
        empty = StatementProfile(3, "x")
        assert empty.cost_divergence == 1.0
