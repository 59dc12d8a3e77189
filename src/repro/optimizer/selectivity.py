"""Selectivity estimation from histograms, with System-R style defaults.

When a column has no collected statistics the estimator falls back to
fixed default selectivities.  This is deliberately faithful to the
paper's host system: *missing statistics produce bad estimates*, the
actual-vs-estimated divergence the analyzer's first rule detects.
"""

from __future__ import annotations

from typing import Callable

from repro.catalog.statistics import ColumnStatistics
from repro.sql import ast_nodes as ast

StatsResolver = Callable[[ast.ColumnRef], ColumnStatistics | None]

#: Equality selectivity assumed when no histogram exists.
DEFAULT_SELECTIVITY_EQ = 0.005
#: Range selectivity assumed when no histogram exists.
DEFAULT_SELECTIVITY_RANGE = 0.33
DEFAULT_NULL_SELECTIVITY = 0.01
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_LIKE_PREFIX_SELECTIVITY = 0.05
DEFAULT_JOIN_SELECTIVITY = 0.01
DEFAULT_OTHER_SELECTIVITY = 0.25


def _literal_value(expr: ast.Expression):
    """Return the literal's value, unwrapping a unary minus."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if (isinstance(expr, ast.UnaryOp) and expr.op == "-"
            and isinstance(expr.operand, ast.Literal)
            and isinstance(expr.operand.value, (int, float))):
        return -expr.operand.value
    return _NOT_A_LITERAL


_NOT_A_LITERAL = object()


class SelectivityEstimator:
    """Estimates the fraction of rows surviving a predicate."""

    # -- entry points ----------------------------------------------------

    def selectivity(self, expr: ast.Expression,
                    resolve: StatsResolver) -> float:
        """Selectivity of an arbitrary boolean expression."""
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "and":
                return (self.selectivity(expr.left, resolve)
                        * self.selectivity(expr.right, resolve))
            if expr.op == "or":
                s1 = self.selectivity(expr.left, resolve)
                s2 = self.selectivity(expr.right, resolve)
                return min(1.0, s1 + s2 - s1 * s2)
            if expr.op == "like":
                return self._like_selectivity(expr)
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._comparison_selectivity(expr, resolve)
            return DEFAULT_OTHER_SELECTIVITY
        if isinstance(expr, ast.UnaryOp) and expr.op == "not":
            return max(0.0, 1.0 - self.selectivity(expr.operand, resolve))
        if isinstance(expr, ast.IsNull):
            return self._is_null_selectivity(expr, resolve)
        if isinstance(expr, ast.InList):
            return self._in_list_selectivity(expr, resolve)
        if isinstance(expr, ast.Between):
            return self._between_selectivity(expr, resolve)
        if isinstance(expr, ast.Literal):
            if expr.value is True:
                return 1.0
            if expr.value in (False, None):
                return 0.0
        return DEFAULT_OTHER_SELECTIVITY

    def equality_selectivity(self, column: ast.ColumnRef, value,
                             resolve: StatsResolver) -> float:
        """Selectivity of ``column = value``."""
        stats = resolve(column)
        if stats is not None:
            try:
                return max(1e-9, min(1.0, stats.selectivity_eq(value)))
            except TypeError:
                pass  # a literal the column's values do not compare with
        return DEFAULT_SELECTIVITY_EQ

    def range_selectivity(self, column: ast.ColumnRef, lo, hi,
                          resolve: StatsResolver,
                          lo_inclusive: bool = True,
                          hi_inclusive: bool = True) -> float:
        """Selectivity of ``lo <= column <= hi`` (None = open bound)."""
        stats = resolve(column)
        if stats is not None and stats.histogram is not None:
            try:
                fraction = stats.histogram.selectivity_range(
                    lo, hi, lo_inclusive, hi_inclusive
                )
            except TypeError:
                # a literal the column's values do not compare with
                return DEFAULT_SELECTIVITY_RANGE
            return max(1e-9, min(1.0, fraction * (1.0 - stats.null_fraction)))
        return DEFAULT_SELECTIVITY_RANGE

    def join_selectivity(self, left: ColumnStatistics | None,
                         right: ColumnStatistics | None) -> float:
        """Equi-join selectivity: 1 / max(ndv_left, ndv_right)."""
        ndvs = [s.n_distinct for s in (left, right)
                if s is not None and s.n_distinct > 0]
        if not ndvs:
            return DEFAULT_JOIN_SELECTIVITY
        return 1.0 / max(ndvs)

    # -- helpers ------------------------------------------------------------

    def _comparison_selectivity(self, expr: ast.BinaryOp,
                                resolve: StatsResolver) -> float:
        column, value, op = self._sargable_parts(expr)
        if column is None:
            return DEFAULT_OTHER_SELECTIVITY
        if op == "=":
            return self.equality_selectivity(column, value, resolve)
        if op == "!=":
            return max(
                0.0, 1.0 - self.equality_selectivity(column, value, resolve)
            )
        if op in ("<", "<="):
            return self.range_selectivity(column, None, value, resolve,
                                          hi_inclusive=(op == "<="))
        return self.range_selectivity(column, value, None, resolve,
                                      lo_inclusive=(op == ">="))

    @staticmethod
    def _sargable_parts(expr: ast.BinaryOp):
        """Normalize ``col op literal`` / ``literal op col`` to
        (column, value, op-with-column-on-the-left)."""
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "=": "=", "!=": "!="}
        left_value = _literal_value(expr.left)
        right_value = _literal_value(expr.right)
        if isinstance(expr.left, ast.ColumnRef) \
                and right_value is not _NOT_A_LITERAL:
            return expr.left, right_value, expr.op
        if isinstance(expr.right, ast.ColumnRef) \
                and left_value is not _NOT_A_LITERAL:
            return expr.right, left_value, flipped[expr.op]
        return None, None, expr.op

    def _is_null_selectivity(self, expr: ast.IsNull,
                             resolve: StatsResolver) -> float:
        fraction = DEFAULT_NULL_SELECTIVITY
        if isinstance(expr.operand, ast.ColumnRef):
            stats = resolve(expr.operand)
            if stats is not None:
                fraction = stats.null_fraction
        return max(0.0, 1.0 - fraction) if expr.negated else fraction

    def _in_list_selectivity(self, expr: ast.InList,
                             resolve: StatsResolver) -> float:
        if not isinstance(expr.operand, ast.ColumnRef):
            return DEFAULT_OTHER_SELECTIVITY
        total = 0.0
        for item in expr.items:
            value = _literal_value(item)
            if value is _NOT_A_LITERAL:
                total += DEFAULT_SELECTIVITY_EQ
            else:
                total += self.equality_selectivity(expr.operand, value, resolve)
        total = min(1.0, total)
        return max(0.0, 1.0 - total) if expr.negated else total

    def _between_selectivity(self, expr: ast.Between,
                             resolve: StatsResolver) -> float:
        lo = _literal_value(expr.low)
        hi = _literal_value(expr.high)
        if (not isinstance(expr.operand, ast.ColumnRef)
                or lo is _NOT_A_LITERAL or hi is _NOT_A_LITERAL):
            return DEFAULT_OTHER_SELECTIVITY
        fraction = self.range_selectivity(expr.operand, lo, hi, resolve)
        return max(0.0, 1.0 - fraction) if expr.negated else fraction

    @staticmethod
    def _like_selectivity(expr: ast.BinaryOp) -> float:
        pattern = _literal_value(expr.right)
        if isinstance(pattern, str) and pattern and not pattern.startswith(
                ("%", "_")):
            return DEFAULT_LIKE_PREFIX_SELECTIVITY
        return DEFAULT_LIKE_SELECTIVITY
