"""Tests for expression compilation and SQL NULL semantics."""

import pytest

from repro.errors import ExecutionError
from repro.execution.evaluator import (
    compile_expression,
    compile_predicate,
    like_to_regex,
    sort_key,
)
from repro.sql.parser import parse_statement

SCOPE = (("t", "a"), ("t", "b"), ("t", "name"), (None, "alias_col"))


def evaluate(text, row):
    expr = parse_statement(f"select {text} from t").select_items[0].expression
    return compile_expression(expr, SCOPE)(row)


def check(text, row):
    expr = parse_statement(f"select x from t where {text}").where
    return compile_predicate(expr, SCOPE)(row)


class TestColumnResolution:
    def test_qualified(self):
        assert evaluate("t.a", (1, 2, "x", 9)) == 1

    def test_unqualified_unique(self):
        assert evaluate("b", (1, 2, "x", 9)) == 2

    def test_named_scope_entry(self):
        assert evaluate("alias_col", (1, 2, "x", 9)) == 9

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            evaluate("zz", (1, 2, "x", 9))

    def test_ambiguous_column(self):
        scope = (("t", "a"), ("u", "a"))
        expr = parse_statement("select a from t").select_items[0].expression
        with pytest.raises(ExecutionError):
            compile_expression(expr, scope)

    def test_text_match_takes_priority(self):
        # a scope entry named exactly like the rendered expression wins —
        # this is how aggregate outputs resolve above AggregatePlan
        scope = ((None, "count(*)"),)
        expr = parse_statement(
            "select count(*) from t").select_items[0].expression
        assert compile_expression(expr, scope)((7,)) == 7


class TestArithmetic:
    def test_basic(self):
        assert evaluate("a + b * 2", (1, 3, "", 0)) == 7

    def test_division_int_exact(self):
        assert evaluate("a / b", (6, 3, "", 0)) == 2

    def test_division_fractional(self):
        assert evaluate("a / b", (7, 2, "", 0)) == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("a / b", (1, 0, "", 0))

    def test_modulo(self):
        assert evaluate("a % b", (7, 3, "", 0)) == 1
        assert evaluate("a % 2.5", (1, 0, "", 0)) == 1.0

    def test_unary_minus(self):
        assert evaluate("-a", (5, 0, "", 0)) == -5

    def test_null_propagates(self):
        assert evaluate("a + b", (None, 3, "", 0)) is None
        assert evaluate("-a", (None, 0, "", 0)) is None

    def test_string_concat_not_allowed_with_plus_mixed(self):
        with pytest.raises(ExecutionError):
            evaluate("a + name", (1, 0, "x", 0))

    @pytest.mark.parametrize("text, op", [
        ("name % 5", "%"), ("name * 3", "*"), ("3 * name", "*"),
        ("name + name", "+")])
    def test_arithmetic_takes_numbers_only(self, text, op):
        # Python formats, repeats or joins text here; SQL does not.
        with pytest.raises(ExecutionError, match=f"cannot apply '\\{op}'"):
            evaluate(text, (7, 0, "%d", 0))


class TestComparisons:
    def test_comparisons(self):
        row = (5, 10, "m", 0)
        assert check("a < b", row)
        assert check("a <= 5", row)
        assert not check("a > b", row)
        assert check("a != b", row)

    def test_null_comparison_is_unknown(self):
        row = (None, 10, "m", 0)
        assert not check("a = 10", row)
        assert not check("a != 10", row)  # UNKNOWN, not TRUE

    def test_incompatible_types(self):
        with pytest.raises(ExecutionError):
            check("a > name", (1, 0, "x", 0))


class TestThreeValuedLogic:
    def test_and_short_circuit_false(self):
        assert not check("a = 1 and b = 2", (0, None, "", 0))

    def test_null_and_true_is_unknown(self):
        assert not check("a = 1 and b = 2", (1, None, "", 0))

    def test_null_or_true_is_true(self):
        assert check("a = 1 or b = 2", (1, None, "", 0))

    def test_null_or_false_is_unknown(self):
        assert not check("a = 1 or b = 2", (0, None, "", 0))

    def test_not_null_is_null(self):
        assert not check("not (a = 1)", (None, 0, "", 0))

    def test_is_null(self):
        assert check("a is null", (None, 0, "", 0))
        assert check("a is not null", (1, 0, "", 0))


class TestPredicates:
    def test_in_list(self):
        assert check("a in (1, 2, 3)", (2, 0, "", 0))
        assert not check("a in (1, 2, 3)", (9, 0, "", 0))

    def test_not_in_with_null_item_is_unknown(self):
        assert not check("a not in (1, null)", (9, 0, "", 0))

    def test_in_with_null_operand(self):
        assert not check("a in (1, 2)", (None, 0, "", 0))

    def test_between(self):
        assert check("a between 1 and 5", (3, 0, "", 0))
        assert not check("a between 1 and 5", (9, 0, "", 0))
        assert check("a not between 1 and 5", (9, 0, "", 0))

    def test_like(self):
        row = (0, 0, "protein kinase-7", 0)
        assert check("name like 'protein%'", row)
        assert check("name like '%kinase%'", row)
        assert check("name like '%kinase-_'", row)
        assert not check("name like 'kinase%'", row)

    def test_like_escapes_regex_chars(self):
        assert check("name like 'a.b'", (0, 0, "a.b", 0))
        assert not check("name like 'a.b'", (0, 0, "axb", 0))

    def test_empty_predicate_is_true(self):
        assert compile_predicate(None, SCOPE)((1, 2, "x", 0))


class TestFunctions:
    def test_scalar_functions(self):
        row = (0, -7, "Hello", 0)
        assert evaluate("upper(name)", row) == "HELLO"
        assert evaluate("lower(name)", row) == "hello"
        assert evaluate("length(name)", row) == 5
        assert evaluate("abs(b)", row) == 7
        assert evaluate("substr(name, 2, 3)", row) == "ell"

    def test_coalesce(self):
        assert evaluate("coalesce(a, b, 9)", (None, None, "", 0)) == 9
        assert evaluate("coalesce(a, 5)", (1, 0, "", 0)) == 1

    def test_null_propagation_in_functions(self):
        assert evaluate("upper(name)", (0, 0, None, 0)) is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError):
            evaluate("mystery(a)", (1, 0, "", 0))

    def test_aggregate_outside_aggregation(self):
        with pytest.raises(ExecutionError):
            evaluate("sum(a)", (1, 0, "", 0))


class TestLikeCompilation:
    """A literal pattern's regex is built when the expression is
    compiled, not looked up (or, past the cache's size, rebuilt) per
    row."""

    ROWS = [(i, 0, f"name{i % 50}", 0) for i in range(200)]

    @pytest.fixture
    def compiles(self, monkeypatch):
        import re
        calls = []
        real = re.compile
        monkeypatch.setattr(
            re, "compile",
            lambda *args, **kwargs: calls.append(args[0])
            or real(*args, **kwargs))
        like_to_regex.cache_clear()
        return calls

    def test_5000_distinct_patterns_compile_once_each(self, compiles):
        matched = 0
        for i in range(5000):
            predicate = compile_predicate(parse_statement(
                f"select x from t where name like 'name{i}%'").where, SCOPE)
            assert len(compiles) == i + 1  # at compile time, once
            matched += sum(predicate(row) for row in self.ROWS)
        assert len(compiles) == 5000
        assert matched == 4 * 50 + 4 * 40  # name0..49, prefixes name1..4

    def test_bound_pattern_compiles_once_per_execution(self, compiles):
        where = parse_statement(
            "select x from t where name like 'name1%'").where
        for pattern, expected in (("name1%", 44), ("name2_", 40), ("%", 200)):
            predicate = compile_predicate(where, SCOPE, params=(pattern,))
            before = len(compiles)
            assert sum(predicate(row) for row in self.ROWS) == expected
            assert len(compiles) == before
        assert len(compiles) == 3

    def test_column_valued_pattern_stays_per_row(self, compiles):
        predicate = compile_predicate(parse_statement(
            "select x from t where name like t.name").where, SCOPE)
        assert compiles == []
        assert all(predicate(row) for row in self.ROWS)
        assert len(compiles) == 50  # one per distinct value, then cached

    def test_cache_is_a_bounded_lru(self):
        like_to_regex.cache_clear()
        kept = like_to_regex("kept%")
        for i in range(4095):
            like_to_regex(f"p{i}")
        assert like_to_regex("kept%") is kept  # refreshed, now newest
        like_to_regex("one more")  # evicts p0, the oldest
        info = like_to_regex.cache_info()
        assert info.currsize == info.maxsize == 4096
        assert like_to_regex("kept%") is kept
        misses = like_to_regex.cache_info().misses
        like_to_regex("p0")
        assert like_to_regex.cache_info().misses == misses + 1


class TestHelpers:
    def test_like_regex_cached(self):
        assert like_to_regex("x%") is like_to_regex("x%")

    def test_sort_key_orders_nulls_first(self):
        values = [(3,), (None,), (1,)]
        assert sorted(values, key=sort_key) == [(None,), (1,), (3,)]

    def test_sort_key_mixed_rows(self):
        rows = [(1, None), (1, 5), (0, 9)]
        assert sorted(rows, key=sort_key) == [(0, 9), (1, None), (1, 5)]
