"""Tests for the virtual-index what-if advisor and recommendations."""

import pytest

from repro.catalog.schema import IndexDef
from repro.core.analyzer import Analyzer
from repro.core.analyzer.index_advisor import MAX_INDEX_WIDTH, IndexAdvisor
from repro.core.analyzer.recommendations import (
    Recommendation,
    RecommendationKind,
    apply_recommendations,
)
from repro.core.analyzer.workload_view import StatementProfile
from repro.core.sensors import statement_hash
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plans import IndexLookupJoinPlan, ProjectPlan
from repro.optimizer.what_if import (
    hypothetical_indexes,
    what_if_optimize,
)
from repro.sql.parser import parse_statement


@pytest.fixture
def nref_db(fresh_nref_setup):
    db = fresh_nref_setup.engine.database("nref")
    for table in ("protein", "organism", "sequence", "taxonomy"):
        db.collect_statistics(table)
    return db


class TestWhatIf:
    def test_hypothetical_indexes_are_transient(self, nref_db):
        candidate = IndexDef("v1", "protein", ("tax_id",), virtual=True)
        with hypothetical_indexes(nref_db, [candidate]):
            assert nref_db.catalog.has_index("v1")
        assert not nref_db.catalog.has_index("v1")

    def test_hypothetical_requires_virtual_flag(self, nref_db):
        physical = IndexDef("p1", "protein", ("tax_id",))
        with pytest.raises(ValueError):
            with hypothetical_indexes(nref_db, [physical]):
                pass

    def test_cleanup_on_error(self, nref_db):
        candidate = IndexDef("v1", "protein", ("tax_id",), virtual=True)
        with pytest.raises(RuntimeError):
            with hypothetical_indexes(nref_db, [candidate]):
                raise RuntimeError("boom")
        assert not nref_db.catalog.has_index("v1")

    def test_what_if_reports_benefit(self, nref_db):
        outcome = what_if_optimize(
            nref_db,
            "select name from protein where tax_id = 90",
            [IndexDef("v_tax", "protein", ("tax_id",), virtual=True)],
        )
        assert outcome.hypothetical_cost <= outcome.baseline_cost
        assert outcome.benefit > 0
        assert "v_tax" in outcome.virtual_indexes_used

    def test_useless_candidate_not_chosen(self, nref_db):
        outcome = what_if_optimize(
            nref_db,
            "select count(*) from protein",  # full scan regardless
            [IndexDef("v_tax", "protein", ("tax_id",), virtual=True)],
        )
        assert outcome.benefit == 0.0
        assert outcome.virtual_indexes_used == ()

    def test_rejects_non_select(self, nref_db):
        with pytest.raises(ValueError):
            what_if_optimize(nref_db, "delete from protein", [])


class TestCandidateGeneration:
    def test_equality_column_candidates(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        candidates = advisor.candidates_for(
            "select name from protein where tax_id = 3 and source_id = 2")
        keys = {(c.table_name, c.column_names) for c in candidates}
        assert ("protein", ("tax_id",)) in keys
        assert ("protein", ("source_id",)) in keys
        assert ("protein", ("tax_id", "source_id")) in keys

    def test_join_column_candidates(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        candidates = advisor.candidates_for(
            "select p.name from protein p join organism o "
            "on p.nref_id = o.nref_id")
        keys = {(c.table_name, c.column_names) for c in candidates}
        assert ("protein", ("nref_id",)) in keys
        assert ("organism", ("nref_id",)) in keys

    def test_range_appended_to_equality(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        candidates = advisor.candidates_for(
            "select name from protein where tax_id = 3 and length > 50")
        keys = {(c.table_name, c.column_names) for c in candidates}
        assert ("protein", ("tax_id", "length")) in keys

    def test_width_capped(self, nref_db):
        columns = ("tax_id", "source_id", "length", "mol_weight")
        assert len(columns) > MAX_INDEX_WIDTH
        advisor = IndexAdvisor(nref_db)
        candidates = advisor.candidates_for(
            "select name from protein where " + " and ".join(
                f"{column} = {n}" for n, column in enumerate(columns)))
        widths = {len(c.column_names) for c in candidates}
        assert max(widths) == MAX_INDEX_WIDTH
        assert ("protein", columns[:MAX_INDEX_WIDTH]) in {
            (c.table_name, c.column_names) for c in candidates}

    def test_non_select_yields_nothing(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        assert advisor.candidates_for("select 1") == []

    def test_all_candidates_virtual(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        candidates = advisor.candidates_for(
            "select name from protein where tax_id = 3")
        assert candidates and all(c.virtual for c in candidates)


class TestAdvise:
    def make_profile(self, text, frequency=1):
        return StatementProfile(
            text_hash=statement_hash(text), text=text,
            frequency=frequency, executions=frequency,
        )

    def test_votes_accumulate_across_statements(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        profiles = [
            self.make_profile(
                f"select name from protein where tax_id = {90 + i}")
            for i in range(3)
        ]
        result = advisor.advise(profiles)
        assert result.votes.get(("protein", ("tax_id",)), 0) >= 3
        recs = [r for r in result.recommendations
                if r.columns == ("tax_id",)]
        assert recs
        assert recs[0].kind is RecommendationKind.CREATE_INDEX

    def test_frequency_weights_votes(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        result = advisor.advise([self.make_profile(
            "select name from protein where tax_id = 90", frequency=10)])
        assert result.votes.get(("protein", ("tax_id",)), 0) >= 10

    def test_unparseable_statement_skipped(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        result = advisor.advise([self.make_profile("select ???")])
        assert result.skipped_statements == 1
        assert result.recommendations == []

    def test_statement_on_missing_table_skipped(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        result = advisor.advise(
            [self.make_profile("select a from not_a_table")])
        assert result.skipped_statements == 1

    def test_per_statement_advice_populated(self, nref_db):
        text = "select name from protein where tax_id = 90"
        advisor = IndexAdvisor(nref_db)
        result = advisor.advise([self.make_profile(text)])
        baseline = what_if_optimize(nref_db, text, []).baseline_cost
        assert list(result.virtual_costs) == [statement_hash(text)]
        assert result.virtual_costs[statement_hash(text)] < baseline

    def test_non_selects_and_empty_texts_are_passed_over(self, nref_db):
        advisor = IndexAdvisor(nref_db)
        result = advisor.advise([
            self.make_profile("insert into protein (nref_id) values ('x')"),
            self.make_profile("insert into protein (nref_id) values ('x'), ("),
            StatementProfile(text_hash=1, text=""),
            self.make_profile("select name from protein where tax_id = 90"),
        ])
        assert result.skipped_statements == 0
        assert result.whatif_calls == 1
        assert list(result.votes) == [("protein", ("tax_id",))]

    def test_a_select_behind_a_comment_is_advised(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        session.execute("select name from protein where tax_id = 5")
        session.execute("-- report\nselect name from protein "
                        "where source_id = 5")
        fresh_nref_setup.daemon.poll_once()
        fresh_nref_setup.daemon.flush()
        report = Analyzer(fresh_nref_setup.engine.database("nref")) \
            .analyze_workload_db(fresh_nref_setup.workload_db)
        assert {r.columns for r in report.index_recommendations} == \
            {("tax_id",), ("source_id",)}


SOURCE_JOIN = ("select p.name from source src join protein p "
               "on p.source_id = src.source_id where src.source_name = 'PIR'")
"""A join only an index lookup into ``protein(source_id)`` can speed
up: the query filters ``source``, not ``protein``."""


class TestLookupJoins:
    def test_session_records_the_join_index(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        session.execute("create index i_src on protein (source_id)")
        session.execute("create statistics on protein")
        db = fresh_nref_setup.engine.database("nref")
        plan = Optimizer(db).optimize_select(parse_statement(SOURCE_JOIN)).plan
        assert isinstance(plan, ProjectPlan)
        assert isinstance(plan.child, IndexLookupJoinPlan)
        session.execute(SOURCE_JOIN)
        assert session.execute(
            "select used_indexes from ima_workload").rows[-1] == ("i_src",)
        assert session.execute(
            "select object_name from ima_references "
            "where object_type = 'index'").rows == [("i_src",)]

    def test_what_if_sees_a_lookup_join_candidate(self, nref_db):
        outcome = what_if_optimize(nref_db, SOURCE_JOIN, [
            IndexDef("v_src", "protein", ("source_id",), virtual=True)])
        assert isinstance(outcome.hypothetical.plan.child,
                          IndexLookupJoinPlan)
        assert outcome.virtual_indexes_used == ("v_src",)

    def test_advisor_votes_for_a_lookup_join_candidate(self, nref_db):
        result = IndexAdvisor(nref_db).advise([StatementProfile(
            text_hash=statement_hash(SOURCE_JOIN), text=SOURCE_JOIN,
            frequency=1)])
        assert result.votes.get(("protein", ("source_id",))) == 1


class TestRecommendations:
    def test_to_sql(self):
        stats = Recommendation(RecommendationKind.CREATE_STATISTICS, "t")
        assert stats.to_sql() == "create statistics on t"
        cols = Recommendation(RecommendationKind.CREATE_STATISTICS, "t",
                              columns=("a", "b"))
        assert cols.to_sql() == "create statistics on t (a, b)"
        index = Recommendation(RecommendationKind.CREATE_INDEX, "t",
                               columns=("a",), index_name="i_a")
        assert index.to_sql() == "create index i_a on t (a)"
        modify = Recommendation(RecommendationKind.MODIFY_TO_BTREE, "t")
        assert modify.to_sql() == "modify t to btree"

    def test_apply_order_modify_first(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        recommendations = [
            Recommendation(RecommendationKind.CREATE_STATISTICS, "protein"),
            Recommendation(RecommendationKind.CREATE_INDEX, "protein",
                           columns=("tax_id",), index_name="i_tax"),
            Recommendation(RecommendationKind.MODIFY_TO_BTREE, "protein"),
        ]
        applied = apply_recommendations(session, recommendations)
        assert [a.recommendation.kind for a in applied] == [
            RecommendationKind.MODIFY_TO_BTREE,
            RecommendationKind.CREATE_INDEX,
            RecommendationKind.CREATE_STATISTICS,
        ]
        assert all(a.succeeded for a in applied)

    def test_apply_reports_failures_without_aborting(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        recommendations = [
            Recommendation(RecommendationKind.CREATE_INDEX, "no_table",
                           columns=("x",), index_name="i_x"),
            Recommendation(RecommendationKind.CREATE_STATISTICS, "protein"),
        ]
        applied = apply_recommendations(session, recommendations)
        assert [a.succeeded for a in applied] == [False, True]
        assert applied[0].error
