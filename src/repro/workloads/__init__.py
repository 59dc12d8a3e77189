"""Workloads: the NREF-shaped evaluation database and query sets.

The paper evaluates on the Non-Redundant Reference Protein (NREF)
database [17]: six tables, 100 M rows of real data.  We generate a
deterministic synthetic database with the same six-table shape at a
configurable scale, plus the three workload classes of section V:

* the **50** complex-join query set (NREF2J/NREF3J style),
* the **50k** simple two-table joins with distinct statement texts,
* the **1m** trivial point queries.

:mod:`repro.workloads.driver` adds the multi-session traffic driver
that runs these workloads from N concurrent threads on one engine.
"""

from repro.workloads.driver import (
    DriverReport,
    ThreadedDriver,
    run_thread_mode,
    verify_persisted_invariants,
)
from repro.workloads.nref import (
    NREF_TABLE_NAMES,
    NrefScale,
    create_nref_schema,
    load_nref,
    reference_indexes,
)
from repro.workloads.queries import (
    complex_query_set,
    point_query_statements,
    simple_join_statements,
)
from repro.workloads.runner import RunReport, WorkloadRunner

__all__ = [
    "NREF_TABLE_NAMES",
    "DriverReport",
    "NrefScale",
    "RunReport",
    "ThreadedDriver",
    "WorkloadRunner",
    "complex_query_set",
    "create_nref_schema",
    "load_nref",
    "point_query_statements",
    "reference_indexes",
    "run_thread_mode",
    "simple_join_statements",
    "verify_persisted_invariants",
]
