"""An independent oracle: the engine against stdlib ``sqlite3``.

A small NREF instance is loaded into three engines — this one with its
plan cache on, this one with ``PLAN_CACHE_SIZE`` patched to 0, and SQLite — and
the 50 NREF queries plus reduced ``perf.workloads`` streams (all four,
DML included) run on each.  Results are compared as order-free
canonical rows, floats rounded to nine significant digits.

Why three: cache-off against SQLite checks the engine itself against
something that shares none of its code; cache-on against cache-off
checks that running a prepared plan under another text's literal
vector is invisible.

A ``LIMIT`` picks among rows that tie on the sort key, so a limited
statement is checked in two parts: its limit-free text must match
SQLite exactly, and the limited text must match SQLite in row count
and in the multiset of its sort key (the last select item in every
limited template of these workloads) — and exactly between the two
engine configurations.
"""

from __future__ import annotations

import math
import re
import sqlite3
from unittest import mock

import pytest

from perf import workloads
from repro.catalog.schema import DataType
from repro.engine import EngineInstance
from repro.engine import session as session_module
from repro.workloads import NrefScale, complex_query_set, load_nref
from repro.workloads.nref import NREF_SCHEMAS, generate_rows

SCALE = NrefScale(proteins=150)
SIZES = {
    "trivial_flood": workloads.Size(SCALE.proteins, 120, 40, 40, 1.0),
    "distinct_joins": workloads.Size(SCALE.proteins, 96, 24, 24, 1.0),
    "complex_joins": workloads.Size(SCALE.proteins, 24, 2, 12, 1.0),
    "mixed_dml": workloads.Size(SCALE.proteins, 60, 20, 20, 1.0),
}
_SQLITE_TYPES = {DataType.INT: "integer", DataType.FLOAT: "real",
                 DataType.BOOL: "integer"}
_LIMIT = re.compile(r"\s+limit\s+\d+(\s+offset\s+\d+)?\s*$")


def _significant(value):
    if isinstance(value, float) and math.isfinite(value) and value:
        return round(value, 8 - math.floor(math.log10(abs(value))))
    return value


def canonical(rows) -> list[str]:
    return sorted(repr(tuple(_significant(v) for v in row)) for row in rows)


class Engines:
    """The same data and the same statements on all three."""

    def __init__(self) -> None:
        self.sessions = {}
        for name, size in (("cached", 256), ("uncached", 0)):
            engine = EngineInstance()
            engine.create_database("nref")
            load_nref(engine.database("nref"), SCALE)
            with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
                self.sessions[name] = engine.connect("nref")
        # isolation_level=None: BEGIN/COMMIT are the stream's own.
        self.sqlite = sqlite3.connect(":memory:", isolation_level=None)
        self.sqlite.execute("pragma case_sensitive_like = on")
        for schema in NREF_SCHEMAS:
            columns = ", ".join(
                f"{c.name} {_SQLITE_TYPES.get(c.data_type, 'text')}"
                for c in schema.columns)
            self.sqlite.execute(f"create table {schema.name} ({columns})")
        for table, rows in generate_rows(SCALE).items():
            rows = list(rows)
            marks = ", ".join("?" * len(rows[0]))
            self.sqlite.executemany(
                f"insert into {table} values ({marks})", rows)

    def run(self, text: str):
        """``text`` on all three: ``(cached, uncached, sqlite)`` as row
        lists for a query, row counts for DML, None where SQLite has no
        such statement."""
        ours = []
        for session in self.sessions.values():
            result = session.execute(text)
            rows = getattr(result, "rows", None)
            ours.append(result.rowcount if rows is None else rows)
        if text.startswith("modify"):
            return ours[0], ours[1], None
        cursor = self.sqlite.execute(text)
        if cursor.description is not None:
            return ours[0], ours[1], cursor.fetchall()
        # SQLite has no row count for BEGIN/COMMIT/DDL (-1); ours is 0.
        return ours[0], ours[1], max(cursor.rowcount, 0)

    def check(self, text: str) -> None:
        cached, uncached, theirs = self.run(text)
        if not isinstance(cached, list):
            assert cached == uncached, text
            assert theirs is None or cached == theirs, text
            return
        assert canonical(cached) == canonical(uncached), text
        if not _LIMIT.search(text):
            assert canonical(uncached) == canonical(theirs), text
            return
        assert len(uncached) == len(theirs), text
        assert canonical((row[-1],) for row in uncached) \
            == canonical((row[-1],) for row in theirs), text
        self.check(_LIMIT.sub("", text))


@pytest.fixture(scope="module")
def engines() -> Engines:
    return Engines()


def test_the_50_nref_queries(engines):
    statements = complex_query_set(SCALE)
    assert len(statements) == 50
    for text in statements:
        engines.check(text)
    # A second pass with other literals runs the prepared plans.
    for text in complex_query_set(SCALE, seed=8):
        engines.check(text)
    assert engines.sessions["cached"].plan_cache_hits > 0
    assert engines.sessions["uncached"].plan_cache_hits == 0


@pytest.mark.parametrize("name", workloads.WORKLOAD_NAMES)
def test_reduced_benchmark_stream(engines, name):
    workload = workloads.build(name, seed=5, rounds=2, size=SIZES[name])
    hits = engines.sessions["cached"].plan_cache_hits
    for text in workload.prepare:
        engines.check(text)
    for chunk in workload.chunks:
        for text in chunk:
            engines.check(text)
    for query, expected in (workload.final_checks[-1]
                            if workload.final_checks else ()):
        cached, uncached, theirs = engines.run(query)
        assert cached == uncached == expected, query
        assert canonical(theirs) == canonical(expected), query
    assert engines.sessions["cached"].plan_cache_hits > hits
