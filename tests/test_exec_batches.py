"""The batch pipeline counts exactly what the row-at-a-time pipeline it
replaced counted.  Each case pins its rows (count and digest) and its
full ``ExecutionMetrics``, as recorded from the row pipeline: Figure 7
and the keep-or-revoke evidence compare ``tuples_processed`` and
``logical_reads`` with ``==``.  The LIMIT cases stop inside a page, or
inside the matches of one probe row, which is where batches could
overcount.  The hash join's switch from filtering to hashing returns a
nested loop's rows and counts a hash join's work.  The last test
checks that a statement's metrics are its own while other sessions
scan."""

import hashlib
import sys
import threading
import time
from itertools import chain, repeat

import pytest

from perf import workloads
from repro.catalog.schema import DataType
from repro.engine import EngineInstance
from repro.execution import joins
from repro.execution.executor import ExecutionMetrics as M
from repro.execution.scan import Counters
from repro.execution.shaping import limit_step
from repro.optimizer.plans import (HashJoinPlan, LimitPlan,
                                   NestedLoopJoinPlan, SeqScanPlan)
from repro.optimizer.predicates import conjoin
from repro.sql import ast_nodes as ast
from repro.workloads import NrefScale, load_nref


def _outcome(result):
    digest = hashlib.sha256(repr(result.rows).encode()).hexdigest()[:16]
    return len(result.rows), digest, result.metrics


# -- the paper's 50 test ----------------------------------------------------------

# One statement per template, seed 1, run in order on a freshly loaded
# database at the benchmark's scale: 262 pages against a 256-page pool,
# so the physical reads are pinned too.
COMPLEX_JOINS = [
    (684, "2b81b3f5f48d4822", M(144, 57, 0, 10152, 684)),
    (53, "a1505d46e6f95764", M(100, 0, 0, 14867, 53)),
    (121, "9961c2cf375e0701", M(58, 0, 0, 4373, 121)),
    (9, "6d9fb523e9cabc58", M(45, 0, 0, 8404, 9)),
    (105, "1fcb541e692c1f3e", M(129, 0, 0, 14145, 105)),
    (76, "fc88ce0856e3731d", M(187, 130, 0, 13361, 76)),
    (6, "8d46dc33cc50b9a9", M(102, 2, 0, 19099, 6)),
    (34, "dcfd429ea5d7849d", M(130, 9, 0, 11458, 34)),
    (20, "6c2cadd61e55585d", M(187, 7, 0, 20116, 20)),
    (25, "61549e9fe62715d6", M(103, 0, 0, 13280, 25)),
    (28, "dec86227074421b3", M(57, 0, 0, 2756, 28)),
    (1, "45806f5fb2b85259", M(57, 0, 0, 2818, 1)),
]


@pytest.fixture(scope="module")
def complex_outcomes():
    size = workloads.SIZES["complex_joins"]
    engine = EngineInstance()
    engine.create_database("nref")
    load_nref(engine.database("nref"), NrefScale(proteins=size.proteins))
    texts = workloads.build("complex_joins", 1, 1).chunks[0][:12]
    with engine.connect("nref") as session:
        return [_outcome(session.execute(text)) for text in texts]


@pytest.mark.parametrize("template", range(12))
def test_complex_joins_template(complex_outcomes, template):
    assert complex_outcomes[template] == COMPLEX_JOINS[template]


# -- operators at the edges -----------------------------------------------------


@pytest.fixture(scope="module")
def engine():
    """``t`` (NULLs in ``g``, ``s`` and ``f``), ``u`` (eight rows per
    ``g``), ``v`` a B-Tree on ``k``, ``x`` a heap with an index on ``m``
    (four rows per value)."""
    engine = EngineInstance()
    engine.create_database("b")
    with engine.connect("b") as session:
        session.execute("create table t (a int not null, g int, "
                        "s varchar(20), f float, primary key (a))")
        session.execute("insert into t values " + ", ".join(
            f"({a}, {'null' if a % 13 == 0 else a % 7}, "
            f"{'null' if a % 9 == 0 else repr(f's{a % 4}')}, "
            f"{'null' if a % 10 == 0 else a * 0.5})" for a in range(300)))
        session.execute("create table u (x int, g int, pad varchar(40))")
        session.execute("insert into u values " + ", ".join(
            f"({x}, {'null' if x % 17 == 0 else x % 10}, '{'p' * (x % 30)}')"
            for x in range(80)))
        session.execute("create table v (k int not null, note varchar(20), "
                        "primary key (k))")
        session.execute("insert into v values " + ", ".join(
            f"({k}, 'n{k % 5}')" for k in range(0, 6000, 2)))
        session.execute("modify v to btree")
        session.execute("create table x (k int not null, m int, "
                        "note varchar(20))")
        session.execute("insert into x values " + ", ".join(
            f"({k}, {'null' if k % 29 == 0 else k // 4}, 'n{k % 5}')"
            for k in range(8000)))
        session.execute("create index x_m on x (m)")
        for table in ("t", "u", "v", "x"):
            session.execute(f"create statistics on {table}")
    return engine


# (id, text, the plan operator it is about, (rows, digest, metrics))
CASES = [
    ("hash-join-limit", "select t.a, u.x from t join u on t.g = u.g limit 5",
     "HashJoin", (5, "3b8dc3fa37f3d270", M(2, 0, 0, 181, 5))),
    ("hash-join-residual-limit",
     "select t.a, u.x from t join u on t.g = u.g and t.a < u.x limit 5",
     "HashJoin", (5, "fcc02d1ccc502d72", M(2, 0, 0, 189, 5))),
    ("hash-join-offset",
     "select t.a, u.x from t join u on t.g = u.g limit 4 offset 6",
     "HashJoin", (4, "7a63c9b8230fb5f6", M(2, 0, 0, 192, 4))),
    ("nested-loop-limit", "select t.a, u.x from t join u on t.a < u.x limit 5",
     "NestedLoopJoin", (5, "197dbc8c8640c21a", M(2, 0, 0, 106, 5))),
    ("btree-lookup-limit",
     "select t.a, v.note from t join v on t.a = v.k where t.a < 9 limit 3",
     "IndexLookupJoin -> v", (3, "53acda000a613e3e", M(22, 0, 0, 18, 3))),
    ("index-lookup-limit",
     "select t.a, x.k from t join x on t.a = x.m where t.a < 6 limit 3",
     "IndexLookupJoin -> x", (3, "fe577cdf77c552a1", M(11, 0, 0, 13, 3))),
    ("index-lookup-residual-limit",
     "select t.a, x.k from t join x on t.a = x.m "
     "where t.a < 9 and x.note != 'n2' limit 6",
     "IndexLookupJoin -> x", (6, "7faa0b44001b1ad7", M(19, 0, 0, 25, 6))),
    ("filtered-scan-limit", "select a from t where g = 3 limit 4",
     "SeqScan", (4, "dba1aeaecda791ad", M(1, 0, 0, 41, 4))),
    ("index-scan-limit", "select k from x where m = 7 limit 2",
     "IndexScan", (2, "26d7041e29931a16", M(6, 0, 0, 8, 2))),
    ("sort-limit",
     "select t.a, u.x from t join u on t.g = u.g order by u.x, t.a limit 9",
     "Sort", (9, "34569997e43328a7", M(4, 0, 0, 4957, 9))),
    ("count-distinct",
     "select g, count(distinct s), count(*), sum(f), min(s), max(f) "
     "from t group by g",
     "Aggregate", (8, "d2eaf63ae7cf4601", M(3, 0, 0, 608, 8))),
    ("global-count-distinct", "select count(distinct g), avg(f) from t",
     "Aggregate", (1, "9b3e9283b4d2b049", M(3, 0, 0, 601, 1))),
    ("global-aggregate-empty",
     "select count(*), sum(a), min(s), avg(f) from t where a < 0",
     "Aggregate", (1, "f74cc8185398b510", M(3, 0, 0, 301, 1))),
    ("distinct-nulls", "select distinct g, s from t",
     "Distinct", (40, "13b1a7168d7d9a22", M(3, 0, 0, 900, 40))),
]


@pytest.mark.parametrize("text, operator, expected",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_counts_as_the_row_pipeline(engine, text, operator, expected):
    with engine.connect("b") as session:
        assert operator in session.explain(text)
        assert _outcome(session.execute(text)) == expected


# -- a hash join filters for a lone first probe row, else it hashes --------------

# Probe and build rows ``(k, j, v)``; NULLs in both key columns on both
# sides, and build rows sharing a key, so matches come in build order.
PROBE = [(1, 0, "p0"), (None, 0, "p1"), (2, 1, "p2"), (1, None, "p3"),
         (3, 1, "p4"), (1, 0, "p5"), (2, 1, "p6"), (None, None, "p7")]
BUILD = [(1, 0, "b0"), (2, 1, "b1"), (1, 1, "b2"), (None, 0, "b3"),
         (1, 0, "b4"), (3, None, "b5"), (2, 1, "b6")]


class _Types:
    """All a join step asks of its catalog: the declared column types."""

    def column_types(self, table_name):
        return {"k": DataType.INT, "j": DataType.INT, "v": DataType.VARCHAR}


def _join(compiler, plan, sizes, single, limit, build):
    """``plan`` compiled by ``compiler`` over the probe rows in batches of
    ``sizes`` (one row each, ``single``) and ``build``, under a LIMIT if
    ``limit``: the rows it returns and the tuples it counts."""
    probe = iter(PROBE)
    batches = [[next(probe) for _ in range(size)] for size in sizes]
    if single:
        batches = [[row] for batch in batches for row in batch]
    step = compiler(plan, _Types(), None, single, lambda _: iter(batches),
                    lambda _: iter([build]))
    if limit is not None:
        step = limit_step(LimitPlan(plan, limit), None, None, False, step)
    counters = Counters()
    rows = [*chain.from_iterable(step(counters))]
    return rows, counters.tuples


# (id, probe batch sizes, key columns, single, limit, hash join's tuples)
SWITCH = [
    ("0-probe-rows", [], 1, False, None, 7),
    ("1-probe-row", [1], 1, False, None, 11),
    ("2-probe-rows-in-one-batch", [2], 1, False, None, 12),
    ("1-then-batches", [1, 3, 4], 1, False, None, 29),
    ("1-then-1", [1, 1], 1, False, None, 12),
    ("8-probe-rows", [3, 5], 1, False, None, 29),
    ("two-column-key-1", [1], 2, False, None, 10),
    ("two-column-key-8", [1, 2, 5], 2, False, None, 23),
    ("limit-at-first-row", [8], 1, True, 1, 11),
    ("limit-after-switch", [8], 1, True, 9, 32),
]


@pytest.mark.parametrize("sizes, width, single, limit, tuples",
                         [case[1:] for case in SWITCH],
                         ids=[case[0] for case in SWITCH])
def test_hash_join_switch(sizes, width, single, limit, tuples):
    """The rows and their order are a nested loop's over the same inputs;
    the work counted is a hash join's whichever way a probe row found its
    matches: the build side, then each probe row and each output."""
    _check_switch(BUILD, sizes, width, single, limit, tuples)


def _check_switch(rows, sizes, width, single, limit, tuples):
    probe = SeqScanPlan("p", "p", ("k", "j", "v"))
    build = SeqScanPlan("b", "b", ("k", "j", "v"))
    left = tuple(ast.ColumnRef(c, "p") for c in ("k", "j")[:width])
    right = tuple(ast.ColumnRef(c, "b") for c in ("k", "j")[:width])
    hashed = _join(joins.hash_join_step,
                   HashJoinPlan(probe, build, left, right), sizes, single,
                   limit, rows)
    looped = _join(joins.nested_loop_step, NestedLoopJoinPlan(
        probe, build, conjoin([*map(ast.BinaryOp, repeat("="), left, right)])),
        sizes, single, limit, rows)
    assert hashed[0] == looped[0]
    assert hashed[1] == tuples
    if not single:
        assert tuples == len(rows) + sum(sizes) + len(hashed[0])


# Build sides with unique keys but one NULL (in ``k``, so the two-column
# key has a NULL part too), and ones whose keys collapse: two NULLs, or
# ``1`` and ``1.0``.  Each key of the first maps to its one row; the
# others group their rows per key, as BUILD does.
UNIQUE = [(2, 1, "u0"), (None, 0, "u1"), (1, 0, "u2"), (3, 1, "u3"),
          (4, 0, "u4")]
TWO_NULLS = [(2, 1, "n0"), (None, 0, "n1"), (1, 0, "n2"), (None, 1, "n3")]
ONE_AND_ONE_POINT_ZERO = [(1, 0, "f0"), (2, 1, "f1"), (1.0, 0, "f2")]

# (id, build rows, probe batch sizes, key columns, single, limit, tuples)
BUILD_KEYS = [
    ("unique", UNIQUE, [1, 3, 4], 1, False, None, 19),
    ("unique-one-batch", UNIQUE, [8], 1, False, None, 19),
    ("unique-two-column-key", UNIQUE, [1, 3, 4], 2, False, None, 18),
    ("two-null-keys", TWO_NULLS, [1, 3, 4], 1, False, None, 17),
    ("1-and-1.0", ONE_AND_ONE_POINT_ZERO, [1, 3, 4], 1, False, None, 19),
    ("unique-limit-at-first-row", UNIQUE, [8], 1, True, 1, 11),
    ("unique-limit-after-switch", UNIQUE, [8], 1, True, 4, 20),
]


@pytest.mark.parametrize("rows, sizes, width, single, limit, tuples",
                         [case[1:] for case in BUILD_KEYS],
                         ids=[case[0] for case in BUILD_KEYS])
def test_hash_join_switch_by_build_keys(rows, sizes, width, single, limit,
                                        tuples):
    """As above, over build sides whose keys are unique and ones whose
    keys collide, so a probe row finds its one row or its rows' group."""
    _check_switch(rows, sizes, width, single, limit, tuples)


@pytest.mark.parametrize("tail, tuples", [
    ("where t.a < 0", 460), ("where t.a = 1", 475), ("where t.a < 5", 525),
    ("where t.a < 40", 1044), ("where t.a < 40 limit 3", 175),
    ("where t.a < 40 limit 40", 296)])
def test_hash_join_returns_the_nested_loops_rows(engine, tail, tuples):
    """Through a session: 0, 1, 5 and 40 rows of ``t`` (NULLs in
    ``g``), and LIMITs that stop before and after the switch.  The
    nested loop is the same join written without an equality."""
    hashed = f"select t.a, u.x from t join u on t.g = u.g {tail}"
    looped = ("select t.a, u.x from t join u on t.g <= u.g and t.g >= u.g "
              + tail)
    with engine.connect("b") as session:
        assert "HashJoin" in session.explain(hashed)
        assert "NestedLoopJoin" in session.explain(looped)
        result, reference = session.execute(hashed), session.execute(looped)
    assert result.rows == reference.rows
    assert result.metrics.rows_returned == reference.metrics.rows_returned
    assert result.metrics.tuples_processed == tuples


def test_metrics_are_the_statements_own_while_others_scan(engine):
    """The pool counts page requests, misses and write-backs per thread,
    so a point query's metrics leave out the pages other sessions read
    meanwhile.  Two of them loop over scans (one an index scan of a few
    page reads), and a switch every 10 µs lands their reads inside many
    of the point query's executions."""
    text = "select a, s from t where a = 17"
    stop, other_runs = threading.Event(), []

    def scan(query):
        with engine.connect("b") as other:
            while not stop.is_set():
                other.execute(query)
                other_runs.append(query)

    with engine.connect("b") as session:
        solo = session.execute(text).metrics
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        scanners = [threading.Thread(target=scan, args=(query,)) for query in (
            "select k from x where m = 7", "select count(*) from u")]
        for scanner in scanners:
            scanner.start()
        shared, deadline = [], time.monotonic() + 60
        try:
            while (len(shared) < 300 or len(other_runs) < 300) \
                    and time.monotonic() < deadline:
                shared.append(session.execute(text).metrics)
        finally:
            stop.set()
            for scanner in scanners:
                scanner.join(10)
            sys.setswitchinterval(interval)
    assert not any(scanner.is_alive() for scanner in scanners)
    assert len(other_runs) >= 300 and solo.logical_reads > 0
    assert set(shared) == {solo}
