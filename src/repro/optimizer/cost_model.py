"""The engine's internal cost model.

Costs split into an I/O component (page accesses, weighted by
:data:`IO_PAGE_COST`) and a CPU component (tuples and predicate
evaluations).  The executor reports *actual* costs in the same units —
logical page accesses and tuples processed — so estimated and actual
costs are directly comparable, which is what the analyzer's
cost-divergence rule needs.

Heap overflow pages are charged double: chained overflow I/O is random
rather than sequential, which is also why the analyzer's overflow rule
pays off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

OVERFLOW_PENALTY = 2.0

#: Cost units charged per page read from disk.
IO_PAGE_COST = 4.0
#: Cost units charged per tuple processed by an operator.
CPU_TUPLE_COST = 0.01
#: Cost units charged per predicate/expression evaluation.
CPU_OPERATOR_COST = 0.0025
#: Cost units charged per index entry touched.
CPU_INDEX_TUPLE_COST = 0.005
#: Cost units charged per page of an external sort pass.
SORT_PAGE_COST = 2.0


@dataclass(frozen=True)
class Cost:
    """An (io, cpu) cost pair in abstract cost units."""

    io: float = 0.0
    cpu: float = 0.0

    @property
    def total(self) -> float:
        return self.io + self.cpu

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.io + other.io, self.cpu + other.cpu)

    def scaled(self, factor: float) -> "Cost":
        return Cost(self.io * factor, self.cpu * factor)


class CostModel:
    """Cost formulas used by the optimizer (and by what-if analysis)."""

    # -- scans -------------------------------------------------------------

    def seq_scan(self, pages: float, overflow_pages: float,
                 rows: float) -> Cost:
        """Full scan: every page once, overflow pages at the random-I/O
        penalty, one CPU charge per row."""
        io = (pages - overflow_pages) + overflow_pages * OVERFLOW_PENALTY
        return Cost(
            io=io * IO_PAGE_COST,
            cpu=rows * CPU_TUPLE_COST,
        )

    def btree_descent(self, height: float) -> Cost:
        """Root-to-leaf traversal."""
        return Cost(io=max(1.0, height) * IO_PAGE_COST)

    def btree_range_scan(self, height: float, leaf_pages: float,
                         selectivity: float, rows: float) -> Cost:
        """Descend once, then walk the qualifying fraction of the leaves."""
        touched_leaves = max(1.0, math.ceil(leaf_pages * selectivity))
        out_rows = rows * selectivity
        return self.btree_descent(height) + Cost(
            io=touched_leaves * IO_PAGE_COST,
            cpu=out_rows * CPU_TUPLE_COST,
        )

    def index_scan(self, index_height: float, index_leaf_pages: float,
                   selectivity: float, table_rows: float,
                   fetch_height: float) -> Cost:
        """Probe a secondary index, then fetch each matching base row.

        ``fetch_height`` is the page accesses needed per base-row fetch
        (1 for a heap TID fetch, tree height for a B-Tree table).
        """
        matches = table_rows * selectivity
        index_cost = self.btree_range_scan(
            index_height, index_leaf_pages, selectivity, table_rows
        )
        fetch_io = matches * max(1.0, fetch_height)
        return index_cost + Cost(
            io=fetch_io * IO_PAGE_COST,
            cpu=matches * CPU_INDEX_TUPLE_COST,
        )

    # -- joins --------------------------------------------------------------

    def nested_loop_join(self, outer_rows: float, inner_rows: float,
                         inner_cost: Cost) -> Cost:
        """Inner side is materialized once, then rescanned from memory."""
        comparisons = outer_rows * inner_rows
        return inner_cost + Cost(
            cpu=comparisons * CPU_OPERATOR_COST
        )

    def hash_join(self, build_rows: float, probe_rows: float) -> Cost:
        """Build + probe CPU; both inputs' scan costs are charged by the
        children themselves."""
        return Cost(
            cpu=(build_rows + probe_rows) * CPU_TUPLE_COST
        )

    def index_lookup_join(self, outer_rows: float, lookup_height: float,
                          matches_per_probe: float,
                          fetch_height: float) -> Cost:
        """One keyed descent per outer row plus base-row fetches."""
        probe_io = outer_rows * max(1.0, lookup_height)
        fetch_io = outer_rows * matches_per_probe * max(0.0, fetch_height)
        return Cost(
            io=(probe_io + fetch_io) * IO_PAGE_COST,
            cpu=outer_rows * matches_per_probe * CPU_INDEX_TUPLE_COST,
        )

    # -- other operators --------------------------------------------------------

    def sort(self, rows: float, pages: float) -> Cost:
        if rows <= 1:
            return Cost()
        passes = math.log2(max(2.0, rows))
        return Cost(
            io=pages * SORT_PAGE_COST,
            cpu=rows * passes * CPU_OPERATOR_COST,
        )

    def aggregate(self, rows: float, groups: float) -> Cost:
        return Cost(cpu=(rows + groups) * CPU_TUPLE_COST)

    def filter(self, rows: float, predicates: float = 1.0) -> Cost:
        return Cost(cpu=rows * predicates * CPU_OPERATOR_COST)

    def project(self, rows: float, expressions: float = 1.0) -> Cost:
        return Cost(cpu=rows * expressions * CPU_OPERATOR_COST)

    # -- actual-cost conversion ---------------------------------------------------

    def actual_cost(self, logical_reads: int, tuples: int) -> Cost:
        """Convert executor counters into the model's cost units so the
        monitor can store actual and estimated costs side by side."""
        return Cost(
            io=logical_reads * IO_PAGE_COST,
            cpu=tuples * CPU_TUPLE_COST,
        )
