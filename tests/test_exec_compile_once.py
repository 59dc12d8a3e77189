"""Compile once, bind per execution: a prepared statement's program is
compiled at its first execution and never again while its cache entry
and schema version live; every later text of the shape only binds its
literals.  Reuse stays invisible (rows and work counters equal a
session's with ``PLAN_CACHE_SIZE`` patched to 0) and DDL retires
the program."""

import random
import sqlite3
from unittest import mock

import pytest

from repro.engine import EngineInstance
from repro.engine import session as session_module
from repro.engine.session import DmlResult
from repro.execution import evaluator, executor
from repro.optimizer.plans import ProjectPlan
from repro.workloads.nref import NrefScale, load_nref

PROTEINS = 120


def nref_id(i: int) -> str:
    return f"NF{i:08d}"


@pytest.fixture
def compiles(monkeypatch):
    """Calls of the three compile-time constructors while a test runs."""
    counts = {"_KernelSource": 0, "ScopeIndex": 0, "_kernel_factory": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for cls in (evaluator._KernelSource, evaluator.ScopeIndex):
        monkeypatch.setattr(cls, "__init__",
                            counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(evaluator, "_kernel_factory", counting(
        "_kernel_factory", evaluator._kernel_factory))
    return counts


def _engines():
    """A preparing and a never-preparing engine over the same data."""
    sessions = []
    for size in (256, 0):
        engine = EngineInstance()
        database = engine.create_database("nref")
        load_nref(database, NrefScale(proteins=PROTEINS))
        with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
            session = engine.connect("nref")
        session.execute("create table bench_events (id int not null, "
                        "nref_id varchar(11), score float, "
                        "note varchar(40), primary key (id))")
        session.execute("modify bench_events to btree")
        session.execute("create index bench_events_nref on bench_events "
                        "(nref_id)")
        session.execute("insert into bench_events values " + ", ".join(
            f"({i}, '{nref_id(i % PROTEINS + 1)}', {i * 0.25}, 'preload')"
            for i in range(1000, 1200)))
        session.plan_cache_misses = 0  # the insert was prepared
        sessions.append(session)
    return sessions


def _outcome(session, text):
    result = session.execute(text)
    if isinstance(result, DmlResult):
        return result.kind, result.rowcount
    return result.rows, result.metrics


# One template per perf/ statement shape, drawn with a fresh vector of
# literals per call.
SHAPES = {
    "point query": lambda rng: (
        "select p.nref_id from protein p "
        f"where p.nref_id = '{nref_id(rng.randint(1, PROTEINS))}'"),
    "distinct join": lambda rng: (
        "select p.nref_id, s.sequence, s.ordinal from protein p "
        "join sequence s on p.nref_id = s.nref_id "
        f"where p.nref_id = '{nref_id(rng.randint(1, PROTEINS))}' "
        f"and s.ordinal < {100000 + rng.randint(0, 50)}"),
    "insert": lambda rng: (
        f"insert into bench_events values ({rng.randint(2000, 10**6)}, "
        f"'{nref_id(rng.randint(1, PROTEINS))}', "
        f"{rng.randint(0, 400) * 0.25}, 'inserted')"),
    "update score": lambda rng: (
        "update bench_events set score = score + "
        f"{rng.randint(1, 40) * 0.25} where id = {rng.randint(1000, 1199)}"),
    "update note": lambda rng: (
        f"update bench_events set note = 't{rng.randint(0, 10**6):07d}' "
        f"where id = {rng.randint(1000, 1199)}"),
    "delete": lambda rng: (
        f"delete from bench_events where id = {rng.randint(1000, 1199)}"),
    "key select": lambda rng: (
        "select id, nref_id, score, note from bench_events "
        f"where id = {rng.randint(1000, 1199)}"),
    "hash join, aggregate, sort": lambda rng: (
        "select o.organism_name, count(*) cnt from protein p "
        "join organism o on p.nref_id = o.nref_id "
        f"where p.mol_weight > {round(rng.uniform(7950, 8050), 1)} "
        "group by o.organism_name order by cnt desc"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_warm_shapes_do_no_compile_work(shape, compiles):
    rng = random.Random(shape)
    cached, uncached = _engines()
    first = SHAPES[shape](rng)
    assert _outcome(cached, first) == _outcome(uncached, first)
    if shape.startswith("hash join"):
        assert "HashJoin" in cached.explain(first)
    warm = [SHAPES[shape](rng) for _ in range(50)]
    outcomes = []
    for key in compiles:
        compiles[key] = 0
    for text in warm:
        outcomes.append(_outcome(cached, text))
    assert compiles == dict.fromkeys(compiles, 0)
    assert cached.plan_cache_misses == 1
    assert outcomes == [_outcome(uncached, text) for text in warm]


@pytest.fixture
def compile_calls(monkeypatch):
    """The programs compiled while a test runs: one root per compile
    (the plans below have one Project, at the top)."""
    calls = []
    real = executor.compile_plan

    def spy(plan, catalog, params):
        if isinstance(plan, ProjectPlan):
            calls.append(plan)
        return real(plan, catalog, params)

    monkeypatch.setattr(executor, "compile_plan", spy)
    return calls


_ROWS = [(i, i % 7 if i % 5 else None, f"s{i % 3}") for i in range(60)]


@pytest.mark.parametrize("ddl", [
    "modify t to btree", "create index t_b on t (b)", "drop index t_s",
    "create statistics on t", "drop table t + recreate"])
def test_schema_changes_invalidate_the_program(ddl, compile_calls):
    engine = EngineInstance()
    engine.create_database("d")
    session = engine.connect("d")
    oracle = sqlite3.connect(":memory:")

    def create(columns):
        """``t`` with ``columns`` (a, b and s, in some order) and _ROWS."""
        order = [column.split()[0] for column in columns.split(", ")[:3]]
        session.execute(f"create table t ({columns})")
        oracle.execute(f"create table t ({columns})")
        for row in _ROWS:
            named = dict(zip("abs", row))
            values = ", ".join("null" if named[c] is None else repr(named[c])
                               for c in order)
            session.execute(f"insert into t values ({values})")
            oracle.execute(f"insert into t values ({values})")

    create("a int not null, b int, s varchar(4), primary key (a)")
    session.execute("create index t_s on t (s)")
    query = "select a, s from t where b = {} and a > {}"

    def check(b, a, compiled):
        text = query.format(b, a)
        del compile_calls[:]
        rows = session.execute(text).rows
        assert sorted(rows) == sorted(oracle.execute(text).fetchall())
        assert len(compile_calls) == compiled, text

    check(3, 1, 1)
    check(4, 2, 0)
    if ddl == "drop table t + recreate":
        session.execute("drop table t")
        oracle.execute("drop table t")
        create("s varchar(4), b int, a int not null, primary key (a)")
    else:
        session.execute(ddl)
    check(5, 3, 1)
    check(6, 0, 0)


def _limited_join_results(size):
    """Three literal vectors of a LIMIT over a nested-loop join, on an
    engine with plan cache ``size``: rows and ``tuples_processed``."""
    engine = EngineInstance()
    engine.create_database("d")
    with mock.patch.object(session_module, "PLAN_CACHE_SIZE", size):
        session = engine.connect("d")
    session.execute("create table t (a int, pad varchar(60))")
    session.execute("create table u (x int, pad varchar(60))")
    for table in ("t", "u"):
        session.execute(f"insert into {table} values " + ", ".join(
            f"({i}, '{'p' * 50}')" for i in range(400)))
    texts = [f"select t.a, u.x from t join u on t.a < u.x and u.x < {bound} "
             "limit 3" for bound in (300, 200, 250)]
    assert "NestedLoopJoin" in session.explain(texts[0])
    return [(r.rows, r.metrics.tuples_processed)
            for r in map(session.execute, texts)]


def test_limit_over_a_page_pulled_join_counts_as_unprepared():
    """The inner side of a nested-loop join is taken whole when the join
    starts; a LIMIT above stops the outer side early.  The work counted
    matches an engine that prepares nothing, and equals what the
    row-at-a-time pipeline counted (418, recorded before batches)."""
    prepared, unprepared = (_limited_join_results(size) for size in (256, 0))
    assert prepared == unprepared == [([(0, 1), (0, 2), (0, 3)], 418)] * 3
