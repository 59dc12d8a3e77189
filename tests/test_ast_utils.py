"""Tests for AST utilities and plan-node helpers."""

import pytest

from repro.optimizer.plans import (
    BTreeScanPlan,
    HashScanPlan,
    IndexScanPlan,
    KeyCondition,
    NestedLoopJoinPlan,
    SeqScanPlan,
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


class TestPlanHelpers:
    def make_scan(self):
        return SeqScanPlan("t", "t", ("a", "b"))

    def test_scope(self):
        assert self.make_scan().scope == (("t", "a"), ("t", "b"))

    def test_walk_covers_tree(self):
        join = NestedLoopJoinPlan(self.make_scan(), self.make_scan())
        assert len(list(join.walk())) == 3

    def test_used_indexes_collects_all_kinds(self):
        index_scan = IndexScanPlan("t", "t", ("a",),
                                   (KeyCondition("a", "=", 1),),
                                   index_name="i_x")
        btree = BTreeScanPlan("u", "u", ("k",),
                              (KeyCondition("k", "=", 2),))
        hash_scan = HashScanPlan("v", "v", ("k",),
                                 (KeyCondition("k", "=", 3),))
        join = NestedLoopJoinPlan(index_scan,
                                  NestedLoopJoinPlan(btree, hash_scan))
        assert set(join.used_indexes()) == {"i_x", "u.btree", "v.hash"}

    def test_unkeyed_btree_scan_not_reported(self):
        btree = BTreeScanPlan("u", "u", ("k",))
        assert btree.used_indexes() == ()

    def test_virtual_detection(self):
        virtual = IndexScanPlan("t", "t", ("a",), index_name="v_x",
                                virtual=True)
        real = IndexScanPlan("t", "t", ("a",), index_name="i_x")
        assert virtual.uses_virtual_index()
        assert not real.uses_virtual_index()
        join = NestedLoopJoinPlan(real, virtual)
        assert join.uses_virtual_index()

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
