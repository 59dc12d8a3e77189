"""Batch executor: every operator passes on a page of rows at a time.

Turns physical plans into trees of steps over the storage engine,
counting logical page accesses and tuples processed so the monitor can
record *actual* costs in the same units the optimizer estimates in.
"""

from repro.execution.executor import Executor, ExecutionMetrics, QueryResult

__all__ = ["Executor", "ExecutionMetrics", "QueryResult"]
