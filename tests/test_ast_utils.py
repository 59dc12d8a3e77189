"""Tests for AST utilities and plan-node helpers."""

import pytest

from repro.optimizer.plans import (
    AggregatePlan,
    BTreeScanPlan,
    HashJoinPlan,
    IndexLookupJoinPlan,
    IndexScanPlan,
    KeyCondition,
    LimitPlan,
    NestedLoopJoinPlan,
    ProjectPlan,
    SeqScanPlan,
    SortPlan,
)
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement


def expr_of(text):
    return parse_statement(f"select x from t where {text}").where


class TestWalkExpression:
    def test_walk_yields_all_nodes(self):
        expr = expr_of("a = 1 and (b in (2, 3) or c is null)")
        nodes = list(ast.walk_expression(expr))
        assert sum(isinstance(n, ast.ColumnRef) for n in nodes) == 3
        assert sum(isinstance(n, ast.Literal) for n in nodes) == 3

    def test_referenced_columns(self):
        expr = expr_of("a = 1 and upper(b) like 'X%' and c between d and 5")
        names = {r.name for r in ast.referenced_columns(expr)}
        assert names == {"a", "b", "c", "d"}

    def test_contains_aggregate(self):
        assert ast.contains_aggregate(expr_of("count(a) > 1"))
        assert not ast.contains_aggregate(expr_of("length(a) > 1"))


class TestTransformExpression:
    def test_identity_transform(self):
        expr = expr_of("a = 1 and b between 2 and 3")
        same = ast.transform_expression(expr, lambda node: node)
        assert same.to_sql() == expr.to_sql()

    def test_literal_replacement(self):
        expr = expr_of("a = 1 + 2")

        def fold(node):
            if (isinstance(node, ast.BinaryOp) and node.op == "+"
                    and isinstance(node.left, ast.Literal)
                    and isinstance(node.right, ast.Literal)):
                return ast.Literal(node.left.value + node.right.value)
            return node

        folded = ast.transform_expression(expr, fold)
        assert folded == ast.BinaryOp("=", ast.ColumnRef("a"),
                                      ast.Literal(3))

    def test_subquery_treated_as_leaf(self):
        expr = expr_of("a = (select max(b) from u)")
        seen = []
        ast.transform_expression(expr, lambda n: seen.append(n) or n)
        assert any(isinstance(n, ast.Subquery) for n in seen)
        # inner statement is NOT walked into
        assert not any(isinstance(n, ast.FunctionCall) for n in seen)

    def test_contains_subquery(self):
        assert ast.contains_subquery(expr_of("a in (select b from u)"))
        assert ast.contains_subquery(expr_of("a = (select b from u)"))
        assert not ast.contains_subquery(expr_of("a in (1, 2)"))


class TestToSql:
    @pytest.mark.parametrize("text", [
        "a = 1",
        "a like 'x%'",
        "a is not null",
        "a not in (1, 2)",
        "not (a = 1)",
        "a between 1 and 2",
        "upper(a) = 'X'",
        "count(distinct a) > 1",
        "a = -b",
    ])
    def test_round_trips(self, text):
        expr = expr_of(text)
        reparsed = parse_statement(
            f"select x from t where {expr.to_sql()}").where
        assert reparsed.to_sql() == expr.to_sql()

    def test_string_escaping(self):
        expr = ast.Literal("it's")
        assert expr.to_sql() == "'it''s'"

    def test_star_rendering(self):
        assert ast.Star().to_sql() == "*"
        assert ast.Star("t").to_sql() == "t.*"

    def test_subquery_placeholder(self):
        sub = expr_of("a = (select b from u)").right
        assert "subquery" in sub.to_sql()


KEY = (KeyCondition("k", "=", 1),)
SCAN = SeqScanPlan("s", "s", ("k",))

INDEX_READERS = [
    pytest.param(IndexScanPlan("t", "t", ("a",), KEY, index_name="i_x"),
                 "i_x", id="index_scan"),
    pytest.param(BTreeScanPlan("u", "u", ("k",), KEY), "u.btree",
                 id="btree_scan"),
    pytest.param(IndexLookupJoinPlan(SCAN, "w", "w", ("k",),
                                     via_index="i_w"),
                 "i_w", id="lookup_join_secondary"),
    pytest.param(IndexLookupJoinPlan(SCAN, "w", "w", ("k",)), "w.btree",
                 id="lookup_join_primary"),
    pytest.param(IndexLookupJoinPlan(SCAN, "w", "w", ("k",),
                                     via_index="v_w", virtual=True),
                 "v_w", id="lookup_join_virtual"),
]
"""Every plan node that reads an index, with the name it reports."""

WRAPPERS = {
    "project": lambda node: ProjectPlan(node, names=("k",)),
    "sort": SortPlan,
    "aggregate": AggregatePlan,
    "limit": lambda node: LimitPlan(node, limit=1),
    "nested_loop_left": lambda node: NestedLoopJoinPlan(node, SCAN),
    "nested_loop_right": lambda node: NestedLoopJoinPlan(SCAN, node),
    "hash_join_left": lambda node: HashJoinPlan(node, SCAN),
    "hash_join_right": lambda node: HashJoinPlan(SCAN, node),
}
"""A parent above the index reader that reads no index itself."""


class TestPlanHelpers:
    def make_scan(self):
        return SeqScanPlan("t", "t", ("a", "b"))

    def test_scope(self):
        assert self.make_scan().scope == (("t", "a"), ("t", "b"))

    def test_walk_covers_tree(self):
        join = NestedLoopJoinPlan(self.make_scan(), self.make_scan())
        assert len(list(join.walk())) == 3

    @pytest.mark.parametrize("wrap", WRAPPERS.values(), ids=WRAPPERS)
    @pytest.mark.parametrize("reader, name", INDEX_READERS)
    def test_used_indexes_collects_all_kinds(self, reader, name, wrap):
        assert reader.used_indexes() == (name,)
        assert wrap(reader).used_indexes() == (name,)

    def test_used_indexes_in_plan_order_once(self):
        lookup = IndexLookupJoinPlan(
            IndexScanPlan("t", "t", ("a",), KEY, index_name="i_x"),
            "w", "w", ("k",), via_index="i_w")
        plan = HashJoinPlan(lookup, NestedLoopJoinPlan(
            BTreeScanPlan("v", "v", ("k",), KEY),
            IndexScanPlan("t", "t2", ("a",), KEY, index_name="i_x")))
        assert plan.used_indexes() == ("i_w", "i_x", "v.btree")

    def test_unkeyed_btree_scan_not_reported(self):
        btree = BTreeScanPlan("u", "u", ("k",))
        assert btree.used_indexes() == ()

    def test_virtual_detection(self):
        virtual = IndexScanPlan("t", "t", ("a",), index_name="v_x",
                                virtual=True)
        real = IndexScanPlan("t", "t", ("a",), index_name="i_x")
        assert virtual.used_indexes() == ("v_x",)
        assert "v_x" not in real.used_indexes()
        join = NestedLoopJoinPlan(real, virtual)
        assert join.used_indexes() == ("i_x", "v_x")

    def test_explain_is_indented_tree(self):
        join = NestedLoopJoinPlan(self.make_scan(), self.make_scan())
        text = join.explain()
        lines = text.splitlines()
        assert lines[0].startswith("NestedLoopJoin")
        assert lines[1].startswith("  SeqScan")

    def test_node_labels_show_keys_and_filters(self):
        scan = BTreeScanPlan("t", "t", ("a",),
                             (KeyCondition("a", ">=", 5),),
                             filter_expr=ast.Literal(True))
        label = scan.node_label()
        assert "a >= 5" in label
        assert "filter" in label
