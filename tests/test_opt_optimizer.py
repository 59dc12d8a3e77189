"""Tests for predicate analysis and the optimizer's plan choices."""

import math

import pytest

from repro.catalog.schema import (
    Column,
    DataType,
    IndexDef,
    StorageStructure,
    TableSchema,
)
from repro.errors import OptimizerError
from repro.optimizer import plans
from repro.optimizer.interfaces import (
    TableInfo,
    estimate_row_bytes,
    synthesize_index_info,
)
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.predicates import (
    BindingResolver,
    classify_conjuncts,
    conjoin,
    split_conjuncts,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement


def where(text):
    return parse_statement(f"select x from t where {text}").where


class TestWidthEstimates:
    SCHEMA = TableSchema("w", (
        Column("i", DataType.INT), Column("f", DataType.FLOAT),
        Column("b", DataType.BOOL), Column("v", DataType.VARCHAR, 40),
        Column("t", DataType.TEXT)))
    WIDTHS = {"i": 8, "f": 8, "b": 1, "v": 22, "t": 34}

    def test_rows_and_index_keys_share_column_widths(self):
        """A column is as wide in a virtual index's key as in a row."""
        assert estimate_row_bytes(self.SCHEMA) == 1 + sum(self.WIDTHS.values())
        table = TableInfo("w", self.SCHEMA, StorageStructure.HEAP,
                          row_count=10_000, page_count=100, overflow_pages=0)
        for name, width in self.WIDTHS.items():
            info = synthesize_index_info(
                IndexDef(f"w_{name}", "w", (name,), virtual=True), table)
            per_leaf = 4096 * 0.9 / (8 + width + 8)
            assert info.leaf_pages == math.ceil(10_000 / per_leaf), name


class TestConjuncts:
    def test_split_flattens_ands(self):
        parts = split_conjuncts(where("a = 1 and b = 2 and c = 3"))
        assert len(parts) == 3

    def test_split_keeps_or_whole(self):
        parts = split_conjuncts(where("a = 1 or b = 2"))
        assert len(parts) == 1

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_conjoin_round_trip(self):
        parts = split_conjuncts(where("a = 1 and b = 2"))
        rebuilt = conjoin(parts)
        assert split_conjuncts(rebuilt) == parts

    def test_conjoin_empty(self):
        assert conjoin([]) is None


class TestBindingResolver:
    @pytest.fixture
    def resolver(self):
        return BindingResolver({
            "p": ("id", "name", "tax"),
            "o": ("id", "tax", "label"),
        })

    def test_qualified_passthrough(self, resolver):
        ref = resolver.resolve(ast.ColumnRef("name", table="p"))
        assert ref == ast.ColumnRef("name", table="p")

    def test_unqualified_unique(self, resolver):
        ref = resolver.resolve(ast.ColumnRef("label"))
        assert ref.table == "o"

    def test_ambiguous_rejected(self, resolver):
        with pytest.raises(OptimizerError):
            resolver.resolve(ast.ColumnRef("tax"))

    def test_unknown_rejected(self, resolver):
        with pytest.raises(OptimizerError):
            resolver.resolve(ast.ColumnRef("nope"))
        with pytest.raises(OptimizerError):
            resolver.resolve(ast.ColumnRef("name", table="zz"))

    def test_qualify_rewrites_deep(self, resolver):
        expr = where("label = 'x' and name like 'y%'")
        qualified = resolver.qualify(expr)
        refs = ast.referenced_columns(qualified)
        assert {(r.table, r.name) for r in refs} == {("o", "label"),
                                                     ("p", "name")}


class TestClassification:
    def test_single_table_predicate(self):
        resolver = BindingResolver({"p": ("a",), "o": ("b",)})
        conjuncts = [resolver.qualify(c)
                     for c in split_conjuncts(where("a = 1 and b = 2"))]
        classified = classify_conjuncts(conjuncts)
        assert set(classified.per_binding) == {"p", "o"}
        assert not classified.edges

    def test_equi_join_edge(self):
        resolver = BindingResolver({"p": ("a",), "o": ("b",)})
        conjuncts = [resolver.qualify(where("a = b"))]
        classified = classify_conjuncts(conjuncts)
        assert len(classified.edges) == 1
        edge = classified.edges[0]
        assert edge.bindings == frozenset({"p", "o"})

    def test_non_equi_multi_table_is_residual(self):
        resolver = BindingResolver({"p": ("a",), "o": ("b",)})
        conjuncts = [resolver.qualify(where("a < b"))]
        classified = classify_conjuncts(conjuncts)
        assert not classified.edges
        assert len(classified.residual) == 1


@pytest.fixture
def nref_db(nref_setup):
    return nref_setup.engine.database("nref")


def optimize(db, sql, include_virtual=False):
    statement = parse_statement(sql)
    return Optimizer(db).optimize_select(statement, include_virtual)


class TestPlanChoices:
    def test_seq_scan_without_structures(self, nref_db):
        result = optimize(nref_db, "select nref_id from protein")
        assert isinstance(result.plan, plans.ProjectPlan)
        scan = result.plan.child
        assert isinstance(scan, plans.SeqScanPlan)

    def test_filter_pushed_into_scan(self, nref_db):
        result = optimize(
            nref_db, "select nref_id from protein where length > 50")
        scan = next(n for n in result.plan.walk()
                    if isinstance(n, plans.SeqScanPlan))
        assert scan.filter_expr is not None

    def test_join_produces_join_node(self, nref_db):
        result = optimize(
            nref_db,
            "select p.nref_id from protein p "
            "join sequence s on p.nref_id = s.nref_id")
        join_nodes = [n for n in result.plan.walk()
                      if isinstance(n, (plans.HashJoinPlan,
                                        plans.NestedLoopJoinPlan,
                                        plans.IndexLookupJoinPlan))]
        assert join_nodes

    def test_four_way_join_covers_all_tables(self, nref_db):
        result = optimize(
            nref_db,
            "select count(*) from protein p "
            "join organism o on p.nref_id = o.nref_id "
            "join taxonomy t on o.tax_id = t.tax_id "
            "join source src on p.source_id = src.source_id")
        assert set(result.referenced_tables) == {
            "protein", "organism", "taxonomy", "source"}

    def test_order_by_adds_sort(self, nref_db):
        result = optimize(
            nref_db, "select nref_id from protein order by nref_id")
        assert any(isinstance(n, plans.SortPlan)
                   for n in result.plan.walk())

    def test_aggregation_plan(self, nref_db):
        result = optimize(
            nref_db,
            "select tax_id, count(*) from protein group by tax_id")
        agg = next(n for n in result.plan.walk()
                   if isinstance(n, plans.AggregatePlan))
        assert len(agg.aggregates) == 1

    def test_limit_caps_estimate(self, nref_db):
        result = optimize(nref_db, "select nref_id from protein limit 5")
        assert result.estimated_rows <= 5

    def test_select_without_from(self, nref_db):
        result = optimize(nref_db, "select 1 + 2")
        assert result.estimated_rows == 1.0

    def test_star_requires_from(self, nref_db):
        with pytest.raises(OptimizerError):
            optimize(nref_db, "select *")

    def test_duplicate_binding_rejected(self, nref_db):
        with pytest.raises(OptimizerError):
            optimize(nref_db,
                     "select protein.nref_id from protein join protein "
                     "on protein.nref_id = protein.nref_id")

    def test_self_join_with_aliases_ok(self, nref_db):
        result = optimize(
            nref_db,
            "select a.nref_id from neighboring_seq a "
            "join neighboring_seq b on a.neighbor_id = b.nref_id")
        assert set(result.bindings) == {"a", "b"}

    def test_referenced_columns_tracked(self, nref_db):
        result = optimize(
            nref_db,
            "select name from protein where tax_id = 3 order by length")
        assert ("protein", "tax_id") in result.referenced_columns
        assert ("protein", "length") in result.referenced_columns


class TestIndexAwarePlans:
    def test_index_scan_chosen_for_selective_predicate(self, fresh_nref_setup):
        db = fresh_nref_setup.engine.database("nref")
        db.create_index(IndexDef("idx_tax", "protein", ("tax_id",)))
        db.collect_statistics("protein")
        result = optimize(db,
                          "select name from protein where tax_id = 90")
        index_nodes = [n for n in result.plan.walk()
                       if isinstance(n, plans.IndexScanPlan)]
        assert index_nodes
        assert result.used_indexes == ("idx_tax",)

    def test_btree_key_scan_after_modify(self, fresh_nref_setup):
        db = fresh_nref_setup.engine.database("nref")
        db.modify_table("protein", StorageStructure.BTREE)
        result = optimize(
            db,
            "select name from protein where nref_id = 'NF00000001'")
        btree_nodes = [n for n in result.plan.walk()
                       if isinstance(n, plans.BTreeScanPlan)
                       and n.key_bounded]
        assert btree_nodes

    def test_virtual_index_only_in_what_if_mode(self, fresh_nref_setup):
        db = fresh_nref_setup.engine.database("nref")
        db.create_index(IndexDef("v_tax", "protein", ("tax_id",),
                                 virtual=True))
        db.collect_statistics("protein")
        normal = optimize(db, "select name from protein where tax_id = 90")
        assert "v_tax" not in normal.used_indexes
        what_if = optimize(db, "select name from protein where tax_id = 90",
                           include_virtual=True)
        assert "v_tax" in what_if.used_indexes
        assert what_if.estimated_cost.total <= normal.estimated_cost.total

    def test_estimates_improve_with_statistics(self, fresh_nref_setup):
        db = fresh_nref_setup.engine.database("nref")
        sql = "select name from protein where tax_id = 1"
        before = optimize(db, sql)
        db.collect_statistics("protein")
        after = optimize(db, sql)
        # tax_id = 1 is the heavy zipf value: without stats the default
        # equality selectivity wildly underestimates it.
        assert after.estimated_rows > before.estimated_rows
