"""Property-based tests: ring buffers, histograms, parser, evaluator."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.catalog.statistics import build_histogram
from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer
from repro.execution.evaluator import compile_expression, compile_predicate
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_statement
from tests.test_core_ring_buffer import Use


class TestRingBufferProperties:
    @given(capacity=st.integers(1, 20),
           items=st.lists(st.integers(), max_size=100))
    def test_window_is_suffix(self, capacity, items):
        buffer = RingBuffer(capacity)
        for item in items:
            buffer.append(item)
        assert buffer.values() == items[-capacity:]
        assert buffer.total_appended == len(items)
        assert buffer.dropped == max(0, len(items) - capacity)

    @given(capacity=st.integers(1, 20),
           items=st.lists(st.integers(), max_size=100),
           min_seq=st.integers(0, 120))
    def test_snapshot_seq_filter_sound(self, capacity, items, min_seq):
        buffer = RingBuffer(capacity)
        for item in items:
            buffer.append(item)
        newer = buffer.snapshot(min_seq=min_seq)
        assert all(seq > min_seq for seq, _ in newer)
        seqs = [seq for seq, _ in newer]
        assert seqs == sorted(seqs)

    @given(capacity=st.integers(1, 10),
           keys=st.lists(st.integers(0, 30), max_size=80))
    def test_keyed_buffer_bounded_and_keeps_recent(self, capacity, keys):
        buffer = KeyedRingBuffer(Use, capacity)
        for key in keys:
            buffer.upsert(key, Use(key, 1))
        assert len(buffer) <= capacity
        # the most recently touched distinct keys survive
        recent = list(dict.fromkeys(reversed(keys)))[:capacity]
        for key in recent:
            assert key in buffer


class TestHistogramProperties:
    values_strategy = st.lists(
        st.integers(-1000, 1000), min_size=1, max_size=300)

    @given(values=values_strategy, probe=st.integers(-1500, 1500))
    def test_selectivities_bounded(self, values, probe):
        histogram = build_histogram(values)
        assert 0.0 <= histogram.selectivity_eq(probe) <= 1.0
        assert 0.0 <= histogram.selectivity_range(probe, None) <= 1.0
        assert 0.0 <= histogram.selectivity_range(None, probe) <= 1.0

    @given(values=values_strategy)
    def test_full_range_is_everything(self, values):
        histogram = build_histogram(values)
        assert histogram.selectivity_range(min(values),
                                           max(values)) >= 0.9

    @given(values=values_strategy,
           lo=st.integers(-1000, 1000), width=st.integers(0, 500))
    def test_range_monotone_in_width(self, values, lo, width):
        histogram = build_histogram(values)
        narrow = histogram.selectivity_range(lo, lo + width)
        wide = histogram.selectivity_range(lo, lo + width * 2)
        assert wide >= narrow - 1e-9

    @given(values=st.lists(st.integers(0, 20), min_size=5, max_size=200))
    def test_eq_selectivities_roughly_partition(self, values):
        histogram = build_histogram(values)
        total = sum(histogram.selectivity_eq(v) for v in set(values))
        assert 0.5 <= total <= 1.5  # estimates, but mass is conserved


# -- parser round-trip -------------------------------------------------------

literals = st.one_of(
    st.integers(-1000, 1000).map(ast.Literal),
    st.booleans().map(ast.Literal),
    st.just(ast.Literal(None)),
    st.text(alphabet="abc% _'", max_size=6).map(ast.Literal),
)
columns = st.sampled_from(["a", "b", "c"]).map(ast.ColumnRef)
simple = st.one_of(literals, columns)


def expressions(depth=2):
    if depth == 0:
        return simple
    sub = expressions(depth - 1)
    return st.one_of(
        simple,
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">=",
                                   "+", "-", "*", "and", "or"]),
                  sub, sub).map(lambda t: ast.BinaryOp(*t)),
        sub.map(lambda e: ast.UnaryOp("not", e)),
        st.tuples(sub, st.booleans()).map(
            lambda t: ast.IsNull(t[0], t[1])),
        st.tuples(columns, st.lists(literals, min_size=1, max_size=3),
                  st.booleans()).map(
            lambda t: ast.InList(t[0], tuple(t[1]), t[2])),
        st.tuples(columns, literals, literals, st.booleans()).map(
            lambda t: ast.Between(t[0], t[1], t[2], t[3])),
    )


class TestParserRoundTrip:
    @given(expr=expressions())
    @settings(max_examples=300, deadline=None)
    def test_to_sql_reparses_to_fixpoint(self, expr):
        rendered = expr.to_sql()
        reparsed = parse_statement(
            f"select x from t where {rendered}").where
        assert reparsed.to_sql() == rendered


# -- evaluator vs python semantics ---------------------------------------------

class TestEvaluatorProperties:
    scope = (("t", "a"), ("t", "b"))
    number = st.one_of(st.none(), st.integers(-50, 50))

    @given(a=number, b=number,
           op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    def test_comparisons_match_python_with_null_unknown(self, a, b, op):
        expr = parse_statement(f"select x from t where a {op} b").where
        result = compile_expression(expr, self.scope)((a, b))
        if a is None or b is None:
            assert result is None
        else:
            python = {"=": a == b, "!=": a != b, "<": a < b,
                      "<=": a <= b, ">": a > b, ">=": a >= b}[op]
            assert result == python

    @given(a=number, b=number, op=st.sampled_from(["+", "-", "*"]))
    def test_arithmetic_matches_python(self, a, b, op):
        expr = parse_statement(
            f"select x from t where a {op} b = 0").where.left
        result = compile_expression(expr, self.scope)((a, b))
        if a is None or b is None:
            assert result is None
        else:
            assert result == eval(f"a {op} b")  # noqa: S307 - test oracle

    @given(a=number, lo=st.integers(-50, 50), hi=st.integers(-50, 50))
    def test_between_matches_python(self, a, lo, hi):
        predicate = compile_predicate(
            parse_statement(
                f"select x from t where a between {lo} and {hi}").where,
            self.scope)
        expected = a is not None and lo <= a <= hi
        assert predicate((a, 0)) == expected

    @given(a=number, items=st.lists(st.integers(-5, 5), min_size=1,
                                    max_size=4))
    def test_in_list_matches_python(self, a, items):
        rendered = ", ".join(str(i) for i in items)
        predicate = compile_predicate(
            parse_statement(
                f"select x from t where a in ({rendered})").where,
            self.scope)
        expected = a is not None and a in items
        assert predicate((a, 0)) == expected
