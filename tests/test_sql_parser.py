"""Tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_script, parse_statement, statement_kind


class TestSelect:
    def test_minimal(self):
        stmt = parse_statement("select 1")
        assert isinstance(stmt, ast.SelectStatement)
        assert stmt.from_table is None
        assert stmt.select_items[0].expression == ast.Literal(1)

    def test_star(self):
        stmt = parse_statement("select * from t")
        assert isinstance(stmt.select_items[0].expression, ast.Star)
        assert stmt.from_table.table_name == "t"

    def test_qualified_star(self):
        stmt = parse_statement("select t.* from t")
        star = stmt.select_items[0].expression
        assert isinstance(star, ast.Star)
        assert star.table == "t"

    def test_aliases(self):
        stmt = parse_statement("select a as x, b y from t z")
        assert stmt.select_items[0].alias == "x"
        assert stmt.select_items[1].alias == "y"
        assert stmt.from_table.alias == "z"
        assert stmt.from_table.binding == "z"

    def test_join_on(self):
        stmt = parse_statement(
            "select * from a join b on a.id = b.id join c on b.x = c.x")
        assert len(stmt.joins) == 2
        assert stmt.joins[0].condition is not None
        assert stmt.joins[0].right.table_name == "b"

    def test_inner_join_keyword(self):
        stmt = parse_statement("select * from a inner join b on a.i = b.i")
        assert stmt.joins[0].condition is not None

    def test_comma_join_is_cross(self):
        stmt = parse_statement("select * from a, b where a.i = b.i")
        assert stmt.joins[0].condition is None

    def test_cross_join_keyword(self):
        stmt = parse_statement("select * from a cross join b")
        assert stmt.joins[0].condition is None

    def test_where_group_having_order_limit(self):
        stmt = parse_statement(
            "select kind, count(*) from t where a > 1 group by kind "
            "having count(*) > 2 order by kind desc limit 5 offset 2"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert stmt.limit == 5
        assert stmt.offset == 2

    def test_distinct(self):
        assert parse_statement("select distinct a from t").distinct

    def test_order_by_multiple(self):
        stmt = parse_statement("select a from t order by a, b desc, c asc")
        assert [o.descending for o in stmt.order_by] == [False, True, False]

    def test_count_distinct(self):
        stmt = parse_statement("select count(distinct a) from t")
        call = stmt.select_items[0].expression
        assert isinstance(call, ast.FunctionCall)
        assert call.distinct

    def test_trailing_semicolon_ok(self):
        parse_statement("select 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("select 1 select 2")


class TestExpressions:
    def where(self, condition):
        return parse_statement(f"select a from t where {condition}").where

    def test_precedence_and_over_or(self):
        expr = self.where("a = 1 or b = 2 and c = 3")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "and"

    def test_arithmetic_precedence(self):
        expr = self.where("a = 1 + 2 * 3")
        add = expr.right
        assert isinstance(add, ast.BinaryOp) and add.op == "+"
        assert isinstance(add.right, ast.BinaryOp) and add.right.op == "*"

    def test_parentheses(self):
        expr = self.where("(a = 1 or b = 2) and c = 3")
        assert expr.op == "and"
        assert expr.left.op == "or"

    def test_not(self):
        expr = self.where("not a = 1")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "not"

    def test_unary_minus_folds_literals(self):
        expr = self.where("a = -5")
        assert expr.right == ast.Literal(-5)

    def test_unary_minus_on_column_kept(self):
        expr = self.where("a = -b")
        assert isinstance(expr.right, ast.UnaryOp)
        assert expr.right.op == "-"

    def test_is_null_and_is_not_null(self):
        assert self.where("a is null") == ast.IsNull(ast.ColumnRef("a"))
        assert self.where("a is not null") == ast.IsNull(
            ast.ColumnRef("a"), negated=True)

    def test_in_list(self):
        expr = self.where("a in (1, 2, 3)")
        assert isinstance(expr, ast.InList)
        assert len(expr.items) == 3

    def test_not_in(self):
        assert self.where("a not in (1)").negated

    def test_between(self):
        expr = self.where("a between 1 and 10")
        assert isinstance(expr, ast.Between)
        assert expr.low == ast.Literal(1)

    def test_not_between(self):
        assert self.where("a not between 1 and 2").negated

    def test_between_binds_tighter_than_and(self):
        expr = self.where("a between 1 and 2 and b = 3")
        assert expr.op == "and"
        assert isinstance(expr.left, ast.Between)

    def test_like(self):
        expr = self.where("name like 'x%'")
        assert expr.op == "like"

    def test_not_like(self):
        expr = self.where("name not like 'x%'")
        assert isinstance(expr, ast.UnaryOp) and expr.op == "not"

    def test_neq_normalized(self):
        assert self.where("a <> 1").op == "!="
        assert self.where("a != 1").op == "!="

    def test_booleans_and_null(self):
        assert self.where("a = true").right == ast.Literal(True)
        assert self.where("a = false").right == ast.Literal(False)

    def test_function_call(self):
        expr = self.where("length(name) > 3")
        assert isinstance(expr.left, ast.FunctionCall)
        assert expr.left.name == "length"


class TestDml:
    def test_insert_positional(self):
        stmt = parse_statement("insert into t values (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.InsertStatement)
        assert stmt.columns == ()
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse_statement("insert into t (a, b) values (1, 2)")
        assert stmt.columns == ("a", "b")

    def test_update(self):
        stmt = parse_statement("update t set a = a + 1, b = 'x' where a < 3")
        assert isinstance(stmt, ast.UpdateStatement)
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete_all(self):
        stmt = parse_statement("delete from t")
        assert isinstance(stmt, ast.DeleteStatement)
        assert stmt.where is None


class TestDdl:
    def test_create_table(self):
        stmt = parse_statement(
            "create table t (a int not null, b varchar(20), c float null, "
            "primary key (a)) with structure = btree, main_pages = 16"
        )
        assert isinstance(stmt, ast.CreateTableStatement)
        assert stmt.primary_key == ("a",)
        assert not stmt.columns[0].nullable
        assert stmt.columns[1].length == 20
        assert stmt.structure == "btree"
        assert stmt.main_pages == 16

    def test_create_table_rejects_unknown_type(self):
        with pytest.raises(ParseError):
            parse_statement("create table t (a blob)")

    def test_create_index_variants(self):
        plain = parse_statement("create index i on t (a)")
        assert not plain.unique and not plain.virtual
        unique = parse_statement("create unique index i on t (a, b)")
        assert unique.unique
        virtual = parse_statement("create virtual index i on t (a)")
        assert virtual.virtual
        both = parse_statement("create unique virtual index i on t (a)")
        assert both.unique and both.virtual

    def test_drop_statements(self):
        assert isinstance(parse_statement("drop table t"),
                          ast.DropTableStatement)
        assert isinstance(parse_statement("drop index i"),
                          ast.DropIndexStatement)
        assert isinstance(parse_statement("drop trigger x"),
                          ast.DropTriggerStatement)

    def test_modify(self):
        stmt = parse_statement("modify t to btree with main_pages = 4")
        assert isinstance(stmt, ast.ModifyStatement)
        assert stmt.structure == "btree"
        assert stmt.main_pages == 4

    def test_create_statistics(self):
        stmt = parse_statement("create statistics on t (a, b)")
        assert stmt.columns == ("a", "b")
        assert parse_statement("create statistics on t").columns == ()

    def test_create_trigger(self):
        stmt = parse_statement(
            "create trigger warn on stats when sessions >= 10 raise 'full'")
        assert isinstance(stmt, ast.CreateTriggerStatement)
        assert stmt.message == "full"

    def test_transaction_statements(self):
        assert isinstance(parse_statement("begin"), ast.BeginStatement)
        assert isinstance(parse_statement("commit"), ast.CommitStatement)
        assert isinstance(parse_statement("rollback"), ast.RollbackStatement)


class TestScripts:
    def test_multiple_statements(self):
        statements = parse_script("select 1; select 2; insert into t values (3)")
        assert len(statements) == 3

    def test_empty_script(self):
        assert parse_script("") == []

    def test_expression_round_trip_parses_again(self):
        text = ("select a from t where (a between 1 and 2) "
                "and name like 'x%' or b in (1, 2) and c is not null")
        stmt = parse_statement(text)
        rendered = stmt.where.to_sql()
        reparsed = parse_statement(f"select a from t where {rendered}")
        assert reparsed.where.to_sql() == rendered


class TestStatementKind:
    @pytest.mark.parametrize("text, kind", [
        ("select 1", "select"),
        ("  -- report\nSELECT a from t", "select"),
        ("explain select a from t", "explain"),
        ("insert into t values (1), (", "insert"),
        ("(select 1)", None),
        ("t where a = 1", None),
        ("", None),
    ])
    def test_the_keyword_parse_statement_dispatches_on(self, text, kind):
        assert statement_kind(text) == kind


class TestLiteralSlots:
    """Each Literal parsed from a token knows that token's ordinal in
    ``lexer.parameterize``'s vector; literals turned into structure are
    pinned instead."""

    @staticmethod
    def literals(statement):
        sources = [item.expression for item in statement.select_items]
        sources += [join.condition for join in statement.joins
                    if join.condition is not None]
        sources += [statement.where, statement.having]
        sources += list(statement.group_by)
        sources += [item.expression for item in statement.order_by]
        return [node for source in sources if source is not None
                for node in ast.walk_expression(source)
                if isinstance(node, ast.Literal)]

    def test_slots_index_the_literal_vector(self):
        from repro.sql.lexer import parameterize
        from repro.workloads import NrefScale, complex_query_set
        texts = complex_query_set(NrefScale(proteins=300)) + [
            "select 'a', 2, 3.5 from t where x in (1, 'b', 2.5) "
            "and y between 4 and 5 and z like 'p%' and w is not null "
            "group by 'g' having count(*) > 6 order by 7, 'o' limit 8 offset 9",
            "select a from t join u on t.a = u.a and u.b = 'k' "
            "where t.c = 1 or not t.d <> 2"]
        seen = 0
        for text in texts:
            statement = parse_statement(text)
            _shape, values = parameterize(text)
            found = self.literals(statement)
            for node in found:
                if node.slot is not None:
                    assert values[node.slot] == node.value, text
                    assert type(values[node.slot]) is type(node.value)
            slots = [node.slot for node in found if node.slot is not None]
            assert sorted(slots + list(statement.pinned_slots)) \
                == list(range(len(values))), text
            seen += len(slots)
        assert seen > 90

    def test_keyword_literals_have_no_slot(self):
        where = parse_statement(
            "select 1 from t where a = true and b is null or c = null").where
        assert [node.slot for node in ast.walk_expression(where)
                if isinstance(node, ast.Literal)] == [None, None]

    def test_limit_offset_and_folded_minus_are_pinned(self):
        statement = parse_statement(
            "select a, -1, - -2, -x from t where b > -3.5 and c = 4 "
            "limit 5 offset 6")
        assert statement.pinned_slots == (0, 1, 2, 4, 5)
        assert [(node.value, node.slot)
                for node in self.literals(statement)] \
            == [(-1, None), (2, None), (-3.5, None), (4, 3)]
        assert (statement.limit, statement.offset) == (5, 6)

    def test_slot_is_not_part_of_equality(self):
        assert ast.Literal(5, slot=3) == ast.Literal(5)
        assert hash(ast.Literal(5, slot=3)) == hash(ast.Literal(5))
        assert parse_statement("select 1 from t limit 2") \
            == parse_statement("select 1 from  t limit 2 -- same")
