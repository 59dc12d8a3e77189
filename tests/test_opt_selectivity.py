"""Tests for selectivity estimation and the cost model."""

import pytest

from repro.catalog.statistics import collect_column_statistics
from repro.optimizer.cost_model import CPU_TUPLE_COST, IO_PAGE_COST, Cost, CostModel
from repro.optimizer.selectivity import (
    DEFAULT_SELECTIVITY_EQ,
    DEFAULT_SELECTIVITY_RANGE,
    SelectivityEstimator,
)
from repro.sql.parser import parse_statement


def predicate(text):
    return parse_statement(f"select a from t where {text}").where


@pytest.fixture
def estimator():
    return SelectivityEstimator()


def make_resolver(**column_values):
    stats = {
        name: collect_column_statistics(name, values)
        for name, values in column_values.items()
    }

    def resolve(ref):
        return stats.get(ref.name)

    return resolve


NO_STATS = staticmethod(lambda ref: None)


class TestDefaults:
    """Without statistics the estimator uses fixed defaults — the root
    cause of the cost divergence the analyzer detects."""

    def resolve(self, ref):
        return None

    def test_equality_default(self, estimator):
        sel = estimator.selectivity(predicate("a = 5"), self.resolve)
        assert sel == DEFAULT_SELECTIVITY_EQ

    def test_range_default(self, estimator):
        sel = estimator.selectivity(predicate("a > 5"), self.resolve)
        assert sel == DEFAULT_SELECTIVITY_RANGE

    def test_and_multiplies(self, estimator):
        single = estimator.selectivity(predicate("a = 1"), self.resolve)
        both = estimator.selectivity(predicate("a = 1 and b = 2"),
                                     self.resolve)
        assert both == pytest.approx(single * single)

    def test_or_combines(self, estimator):
        s = estimator.selectivity(predicate("a = 1"), self.resolve)
        either = estimator.selectivity(predicate("a = 1 or b = 2"),
                                       self.resolve)
        assert either == pytest.approx(s + s - s * s)

    def test_not_inverts(self, estimator):
        s = estimator.selectivity(predicate("a = 1"), self.resolve)
        inverted = estimator.selectivity(predicate("not a = 1"),
                                         self.resolve)
        assert inverted == pytest.approx(1.0 - s)

    def test_in_list_sums(self, estimator):
        eq = estimator.selectivity(predicate("a = 1"), self.resolve)
        in3 = estimator.selectivity(predicate("a in (1, 2, 3)"),
                                    self.resolve)
        assert in3 == pytest.approx(3 * eq)

    def test_like_prefix_vs_contains(self, estimator):
        prefix = estimator.selectivity(predicate("a like 'x%'"),
                                       self.resolve)
        contains = estimator.selectivity(predicate("a like '%x%'"),
                                         self.resolve)
        assert prefix < contains

    def test_literal_true_false(self, estimator):
        assert estimator.selectivity(predicate("true"), self.resolve) == 1.0
        assert estimator.selectivity(predicate("false"), self.resolve) == 0.0

    def test_flipped_comparison(self, estimator):
        normal = estimator.selectivity(predicate("a > 5"), self.resolve)
        flipped = estimator.selectivity(predicate("5 < a"), self.resolve)
        assert normal == flipped


class TestWithStatistics:
    def test_equality_uses_histogram(self, estimator):
        resolve = make_resolver(a=list(range(100)))
        sel = estimator.selectivity(predicate("a = 50"), resolve)
        assert sel == pytest.approx(0.01, rel=0.6)

    def test_range_uses_histogram(self, estimator):
        resolve = make_resolver(a=list(range(1000)))
        sel = estimator.selectivity(predicate("a between 0 and 99"), resolve)
        assert sel == pytest.approx(0.1, abs=0.07)

    def test_out_of_domain_equality(self, estimator):
        resolve = make_resolver(a=list(range(100)))
        sel = estimator.selectivity(predicate("a = 100000"), resolve)
        assert sel < 0.001

    def test_literal_of_another_type_falls_back_to_the_defaults(
            self, estimator):
        """The histogram cannot place a string among integers; that is
        an estimate the engine does not have, not a crashed statement
        (the comparison itself decides, at execution, what it means)."""
        resolve = make_resolver(a=list(range(100)))
        assert estimator.selectivity(predicate("a = 'x'"), resolve) \
            == DEFAULT_SELECTIVITY_EQ
        assert estimator.selectivity(predicate("a < 'x'"), resolve) \
            == DEFAULT_SELECTIVITY_RANGE
        assert estimator.selectivity(
            predicate("a between 'x' and 'y'"), resolve) \
            == DEFAULT_SELECTIVITY_RANGE
        assert estimator.selectivity(predicate("a in (1, 'x')"), resolve) \
            == pytest.approx(0.01 + DEFAULT_SELECTIVITY_EQ, rel=0.6)

    def test_is_null_uses_null_fraction(self, estimator):
        resolve = make_resolver(a=[1, 2, None, None])
        assert estimator.selectivity(predicate("a is null"),
                                     resolve) == pytest.approx(0.5)
        assert estimator.selectivity(predicate("a is not null"),
                                     resolve) == pytest.approx(0.5)

    def test_join_selectivity(self, estimator):
        left = collect_column_statistics("x", list(range(100)))
        right = collect_column_statistics("y", list(range(10)))
        assert estimator.join_selectivity(left, right) == pytest.approx(0.01)
        assert estimator.join_selectivity(None, None) == pytest.approx(0.01)
        assert estimator.join_selectivity(left, None) == pytest.approx(0.01)


class TestCostModel:
    @pytest.fixture
    def model(self):
        return CostModel()

    def test_cost_addition_and_total(self):
        cost = Cost(io=2.0, cpu=1.0) + Cost(io=3.0, cpu=0.5)
        assert cost.io == 5.0
        assert cost.total == 6.5

    def test_seq_scan_charges_overflow_double(self, model):
        clean = model.seq_scan(pages=100, overflow_pages=0, rows=1000)
        messy = model.seq_scan(pages=100, overflow_pages=50, rows=1000)
        assert messy.io > clean.io
        assert messy.io == pytest.approx(clean.io * 1.5)

    def test_btree_range_scan_scales_with_selectivity(self, model):
        narrow = model.btree_range_scan(3, 100, 0.01, 10_000)
        wide = model.btree_range_scan(3, 100, 0.5, 10_000)
        assert narrow.total < wide.total

    def test_index_scan_charges_fetches(self, model):
        selective = model.index_scan(2, 50, 0.001, 100_000, fetch_height=1)
        broad = model.index_scan(2, 50, 0.5, 100_000, fetch_height=1)
        assert selective.total < broad.total

    def test_index_lookup_join_linear_in_outer(self, model):
        small = model.index_lookup_join(10, 3, 1.0, 1)
        large = model.index_lookup_join(1000, 3, 1.0, 1)
        assert large.total == pytest.approx(small.total * 100)

    def test_sort_zero_rows(self, model):
        assert model.sort(0, 0).total == 0.0
        assert model.sort(1, 1).total == 0.0

    def test_hash_join_cheaper_than_nlj_for_big_inputs(self, model):
        hash_cost = model.hash_join(10_000, 10_000)
        nlj_cost = model.nested_loop_join(10_000, 10_000, Cost())
        assert hash_cost.total < nlj_cost.total

    def test_actual_cost_units_match(self, model):
        actual = model.actual_cost(logical_reads=10, tuples=100)
        assert actual.io == pytest.approx(10 * IO_PAGE_COST)
        assert actual.cpu == pytest.approx(100 * CPU_TUPLE_COST)
