"""Tests for the per-session, shape-keyed plan cache and the setup
factories."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.config import EngineConfig, MonitorConfig
from repro.core.monitor import MonitorSensors
from repro.engine import EngineInstance
from repro.engine import session as session_module
from repro.errors import ReproError
from repro.setups import daemon_setup, monitoring_setup, original_setup


@pytest.fixture
def cached_session(engine):
    engine.create_database("pc")
    session = engine.connect("pc")
    session.execute("create table t (a int not null, b int, "
                    "primary key (a))")
    session.execute("insert into t values (1, 10), (2, 20), (3, 30)")
    session.plan_cache_misses = 0  # the insert was prepared too
    return session


class TestPlanCache:
    def test_repeated_select_hits_cache(self, cached_session):
        for _ in range(4):
            cached_session.execute("select b from t where a = 2")
        assert cached_session.plan_cache_hits == 3
        assert cached_session.plan_cache_misses == 1

    def test_cached_plan_returns_fresh_data(self, cached_session):
        assert cached_session.execute(
            "select count(*) from t").scalar() == 3
        cached_session.execute("insert into t values (4, 40)")
        assert cached_session.execute(
            "select count(*) from t").scalar() == 4  # cached plan, new data

    def test_ddl_invalidates(self, cached_session):
        cached_session.execute("select b from t where a = 2")
        cached_session.execute("create index i_b on t (b)")
        cached_session.execute("select b from t where a = 2")
        assert cached_session.plan_cache_misses == 2

    def test_statistics_invalidate(self, cached_session):
        cached_session.execute("select b from t where a = 2")
        cached_session.execute("create statistics on t")
        cached_session.execute("select b from t where a = 2")
        assert cached_session.plan_cache_misses == 2

    def test_modify_invalidates(self, cached_session):
        cached_session.execute("select b from t where a = 2")
        cached_session.execute("modify t to btree")
        result = cached_session.execute("select b from t where a = 2")
        assert result.rows == [(20,)]
        assert cached_session.plan_cache_misses == 2

    @pytest.mark.parametrize("ddl", [
        "create index i_b on t (b)", "create statistics on t",
        "modify t to btree", "modify t to hash"])
    def test_ddl_between_two_literal_vectors_replans(self, cached_session,
                                                     ddl):
        assert cached_session.execute(
            "select a from t where b = 20").rows == [(2,)]
        cached_session.execute(ddl)
        assert cached_session.execute(
            "select a from t where b = 30").rows == [(3,)]
        assert cached_session.plan_cache_misses == 2
        assert cached_session.execute(
            "select a from t where b = 10").rows == [(1,)]
        assert cached_session.plan_cache_misses == 2
        assert cached_session.plan_cache_hits == 1

    def test_another_literal_vector_hits(self, cached_session):
        for a, b in ((2, 20), (3, 30), (1, 10), (9, None)):
            rows = cached_session.execute(
                f"select b from t where a = {a}").rows
            assert rows == ([(b,)] if b is not None else [])
        assert cached_session.plan_cache_misses == 1
        assert cached_session.plan_cache_hits == 3

    def test_repeated_text_is_one_lookup(self, cached_session, monkeypatch):
        cached_session.execute("select b from t where a = 2")
        calls = []
        monkeypatch.setattr(
            session_module, "parameterize",
            lambda text: calls.append(text) or pytest.fail("lexed"))
        assert cached_session.execute(
            "select b from t where a = 2").rows == [(20,)]
        assert calls == []
        assert cached_session.plan_cache_hits == 1

    def test_literal_types_are_part_of_the_key(self, cached_session):
        cached_session.execute("select b from t where a < 2")
        assert cached_session.execute(
            "select b from t where a < 2.5").rows == [(10,), (20,)]
        with pytest.raises(ReproError, match="cannot compare"):
            cached_session.execute("select b from t where a < '2'")
        assert cached_session.plan_cache_misses == 3
        assert cached_session.plan_cache_hits == 0
        # 2.0 == 2, but only an integer is a LIMIT count
        cached_session.execute("select a from t limit 2")
        with pytest.raises(ReproError, match="expected LIMIT count"):
            cached_session.execute("select a from t limit 2.0")

    @pytest.mark.parametrize("first, second, rows", [
        ("select a from t order by a limit 1",
         "select a from t order by a limit 2", [(1,), (2,)]),
        ("select a from t order by a limit 2 offset 0",
         "select a from t order by a limit 2 offset 1", [(2,), (3,)]),
        ("select a, 0 - b from t order by 1",
         "select a, 0 - b from t order by 2",
         [(3, -30), (2, -20), (1, -10)]),
        ("select a from t where 0 - b > -15",
         "select a from t where 0 - b > -25", [(1,), (2,)]),
        ("select b + 1, count(*) from t group by b + 1 order by 1",
         "select b + 2, count(*) from t group by b + 2 order by 1",
         [(12, 1), (22, 1), (32, 1)]),
    ])
    def test_structural_literals_are_part_of_the_key(
            self, cached_session, first, second, rows):
        cached_session.execute(first)
        assert cached_session.execute(second).rows == rows
        assert cached_session.plan_cache_misses == 2
        assert cached_session.execute(first).rows != rows
        assert cached_session.plan_cache_hits == 1  # its text is in front

    def test_subqueries_are_never_prepared(self, cached_session):
        for bound, rows in ((5, [(2,), (3,)]), (10, [(3,)])):
            assert cached_session.execute(
                "select a from t where b > "
                f"(select min(b) from t where b > {bound})").rows == rows
        assert cached_session.plan_cache_hits == 0
        assert cached_session.plan_cache_misses == 0

    def test_dml_is_prepared(self, cached_session):
        cached_session.execute("update t set b = b + 1 where a = 1")
        cached_session.execute("update t set b = b + 1 where a = 1")
        assert cached_session.plan_cache_hits == 1  # and ran both times
        assert cached_session.execute(
            "select b from t where a = 1").scalar() == 12

    def test_transaction_control_is_prepared(self, cached_session,
                                             monkeypatch):
        for text in ("begin", "insert into t values (9, 90)", "rollback",
                     "begin", "commit"):
            cached_session.execute(text)
        monkeypatch.setattr(session_module, "parse_statement",
                            lambda text: pytest.fail(f"parsed {text!r}"))
        for text in ("begin", "insert into t values (4, 40)", "rollback",
                     "begin", "insert into t values (5, 50)", "commit"):
            cached_session.execute(text)
        monkeypatch.undo()
        assert cached_session.execute(
            "select a from t where a > 3").rows == [(5,)]

    @pytest.mark.parametrize("ddl", [
        "create index i_b on t (b)", "drop index i_old",
        "create statistics on t", "modify t to btree", "modify t to hash"])
    def test_ddl_between_two_dml_literal_vectors_replans(
            self, cached_session, ddl):
        cached_session.execute("create index i_old on t (b)")
        cached_session.plan_cache_misses = 0
        assert cached_session.execute(
            "update t set b = b + 1 where b = 20").rowcount == 1
        cached_session.execute(ddl)
        assert cached_session.execute(
            "update t set b = b + 1 where b = 30").rowcount == 1
        assert cached_session.plan_cache_misses == 2
        assert cached_session.execute(
            "update t set b = b + 1 where b = 10").rowcount == 1
        assert cached_session.plan_cache_misses == 2
        assert cached_session.plan_cache_hits == 1
        assert cached_session.execute(
            "select a, b from t").rows == [(1, 11), (2, 21), (3, 31)]

    def test_dml_literals_the_parser_folded_are_pinned(self, cached_session):
        cached_session.execute("insert into t values (-1, 0)")
        cached_session.execute("insert into t values (-2, 0)")
        cached_session.execute("update t set b = -5 where a = -1")
        cached_session.execute("update t set b = -6 where a = -2")
        assert sorted(cached_session.execute(
            "select a, b from t where a < 0").rows) == [(-2, -6), (-1, -5)]

    def test_capacity_bounded(self, engine):
        engine.create_database("pc2")
        session = engine.connect("pc2")
        session.execute("create table t (a int)")
        capacity = engine.config.plan_cache_size
        for i in range(capacity + 10):
            session.execute(f"select a from t where a = {i}")
        # one shape entry, the rest exact-text entries in front of it
        assert len(session._prepared) == capacity
        assert session.plan_cache_misses == 1

    def test_disabled_by_config(self):
        from repro.engine import EngineInstance
        engine = EngineInstance(EngineConfig(plan_cache_size=0))
        engine.create_database("pc3")
        session = engine.connect("pc3")
        session.execute("create table t (a int)")
        session.execute("select a from t")
        session.execute("select a from t")
        assert session.plan_cache_hits == 0
        assert session.plan_cache_misses == 0

    def test_caches_are_per_session(self, engine, cached_session):
        cached_session.execute("select b from t where a = 1")
        other = engine.connect("pc")
        other.execute("select b from t where a = 1")
        assert other.plan_cache_misses == 1
        assert other.plan_cache_hits == 0

    def test_monitor_still_sees_cached_executions(self):
        setup = monitoring_setup()
        setup.engine.create_database("pc4")
        session = setup.engine.connect("pc4")
        session.execute("create table t (a int)")
        for _ in range(5):
            session.execute("select a from t")
        from repro.core.sensors import statement_key
        record = setup.monitor.statements.get(
            statement_key("select a from t"))
        assert record.frequency == 5


# -- reuse is invisible ------------------------------------------------------

def _load(engine: EngineInstance) -> None:
    engine.create_database("reuse")
    session = engine.connect("reuse")
    session.execute("create table t (a int not null, b int, f float, "
                    "s varchar(20), primary key (a))")
    session.execute("insert into t values " + ", ".join(
        f"({i}, {'null' if i % 7 == 0 else i % 5 - 2}, {i * 0.5 - 3}, "
        f"'{('ab', 'abc', 'b''c', 'it''s', '')[i % 5]}{i % 3}')"
        for i in range(40)))
    session.execute("modify t to btree")
    session.execute("create index t_b on t (b)")
    session.execute("create table u (a int not null, c varchar(8), "
                    "primary key (a))")
    session.execute("insert into u values " + ", ".join(
        f"({i}, 'c{i % 4}')" for i in range(0, 40, 2)))
    session.execute("modify u to hash")
    session.execute("create statistics on t")


_INT = st.integers(-4, 45)
_FLOAT = st.floats(-5, 20, allow_nan=False).map(lambda v: round(v, 2))
_TEXT = st.sampled_from(["ab0", "abc1", "b'c2", "it's0", "", "ab%", "%c_",
                         "_b%", "%", "zz"])
_ANY = st.one_of(_INT, _FLOAT, _TEXT)
_COUNT = st.one_of(st.integers(0, 6), st.sampled_from([1.0, 2.0]))

# (template, one strategy per ``{}``)
_SHAPES = [
    ("select a, b from t where a = {}", [_INT]),
    ("select a from t where a > {} and b < {}", [_INT, _INT]),
    ("select a from t where b = {}", [_ANY]),
    ("select a, f from t where f < {}", [_FLOAT]),
    ("select a, s from t where s = {}", [_TEXT]),
    ("select a from t where s like {}", [_TEXT]),
    ("select a from t where s not like {} and a < {}", [_TEXT, _INT]),
    ("select a from t where a in ({}, {}, {})", [_ANY, _INT, _INT]),
    ("select a from t where b not in ({}, {})", [_INT, _INT]),
    ("select a from t where a between {} and {}", [_INT, _INT]),
    ("select a from t where f not between {} and {}", [_FLOAT, _FLOAT]),
    ("select a, {} from t where a < {}", [_ANY, _INT]),
    ("select {}, {}", [_ANY, _ANY]),
    ("select a from t order by a limit {} offset {}", [_COUNT, _COUNT]),
    ("select a, a + {} from t where b = {} order by {}",
     [_INT, _INT, st.one_of(st.integers(1, 3), st.sampled_from([1.0, 2.0]))]),
    ("select a from t where b > -{} and f < - {}",
     [st.integers(0, 3), st.integers(0, 3)]),
    ("select a, 0 - a from t where a < {} order by {} desc",
     [_INT, st.integers(0, 2)]),
    ("select b + {}, count(*) from t where a > {} group by b + {}",
     [_INT, _INT, _INT]),
    ("select b, sum(f * {}) from t group by b having sum(f * {}) > {}",
     [_INT, _INT, _FLOAT]),
    ("select t.a, u.c from t join u on t.a = u.a "
     "where u.a = {} and t.b < {}", [_INT, _INT]),
    ("select t.a, u.c from t left join u on t.a = u.a and u.c = {} "
     "where t.a < {}", [_TEXT, _INT]),
    ("select distinct b from t where a > {} order by b", [_INT]),
    ("select a from t where a = {} or s = {}", [_INT, _TEXT]),
]


def _render(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@st.composite
def _shape_and_vectors(draw):
    template, slots = draw(st.sampled_from(_SHAPES))
    vectors = draw(st.lists(st.tuples(*slots), min_size=2, max_size=4))
    return [template.format(*map(_render, vector)) for vector in vectors]


def _outcome(session, text):
    try:
        result = session.execute(text)
    except ReproError as error:
        return type(error).__name__, str(error)
    return result.columns, sorted(result.rows, key=repr)


@pytest.fixture(scope="module")
def reuse_engines():
    engines = (EngineInstance(EngineConfig()),
               EngineInstance(EngineConfig(plan_cache_size=0)))
    for engine in engines:
        _load(engine)
    return engines


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(texts=_shape_and_vectors())
def test_reuse_is_invisible(reuse_engines, texts):
    """A session warmed with other literal vectors of a shape returns
    exactly what a fresh ``plan_cache_size=0`` session returns for the
    last one, errors included."""
    cached, uncached = reuse_engines
    with cached.connect("reuse") as warmed:
        for text in texts[:-1]:
            _outcome(warmed, text)
        with uncached.connect("reuse") as fresh:
            assert _outcome(warmed, texts[-1]) == _outcome(fresh, texts[-1])
            assert fresh.plan_cache_hits == fresh.plan_cache_misses == 0


_DML_SHAPES = [
    ("insert into t values ({}, {}, {}, {})", [_INT, _INT, _FLOAT, _TEXT]),
    ("insert into t (s, a) values ({}, {}), ({}, {})",
     [_TEXT, _INT, _TEXT, _INT]),
    ("update t set f = f + {} where a = {}", [_FLOAT, _INT]),
    ("update t set s = {}, b = {} where a > {} and a <= {}",
     [_TEXT, _INT, _INT, _INT]),
    ("update t set b = b + {} where b = {}", [_INT, _ANY]),
    ("update t set a = a + {} where a = {}", [st.integers(100, 104), _INT]),
    ("update t set f = -{} where s like {}", [st.integers(0, 3), _TEXT]),
    ("delete from t where a = {}", [_INT]),
    ("delete from t where b < {} and f > {}", [_INT, _FLOAT]),
    ("delete from t where a between {} and {} or s = {}",
     [_INT, _INT, _TEXT]),
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dml_reuse_is_invisible(reuse_engines, data):
    """The same DML texts — several literal vectors of a few shapes —
    on a session that prepares and on a ``plan_cache_size=0`` one: the
    same outcome statement by statement (errors included) and the same
    table afterwards."""
    texts = []
    for template, slots in data.draw(
            st.lists(st.sampled_from(_DML_SHAPES), min_size=1, max_size=3)):
        for vector in data.draw(
                st.lists(st.tuples(*slots), min_size=2, max_size=4)):
            texts.append(template.format(*map(_render, vector)))
    seen = []
    for engine in reuse_engines:
        with engine.connect("reuse") as session:
            session.execute("begin")
            seen.append([_dml_outcome(session, text) for text in texts]
                        + [_outcome(session, "select * from t")])
            session.execute("rollback")
            if engine is reuse_engines[1]:
                assert session.plan_cache_hits == 0
    assert seen[0] == seen[1]


def _dml_outcome(session, text):
    try:
        return session.execute(text).rowcount
    except ReproError as error:
        return type(error).__name__, str(error)


class TestSetups:
    def test_original_setup(self):
        setup = original_setup()
        assert setup.name == "original"
        assert setup.engine.sensors is None
        assert setup.monitor is None
        assert setup.daemon is None

    def test_monitoring_setup(self):
        setup = monitoring_setup()
        assert setup.name == "monitoring"
        assert isinstance(setup.engine.sensors, MonitorSensors)
        assert setup.engine.sensors.monitor is setup.monitor

    def test_daemon_setup_wires_everything(self):
        setup = daemon_setup("wired")
        assert setup.name == "daemon"
        assert setup.engine.has_database("wired")
        assert setup.workload_db is not None
        assert setup.daemon is not None
        session = setup.engine.connect("wired")
        assert session.execute(
            "select count(*) from ima_statements").scalar() >= 0

    def test_custom_config_respected(self):
        config = EngineConfig(monitor=MonitorConfig(statement_buffer_size=7))
        setup = monitoring_setup(config)
        assert setup.monitor.config.statement_buffer_size == 7

    def test_shared_clock(self, virtual_clock):
        setup = daemon_setup("clocked", clock=virtual_clock)
        assert setup.engine.clock is virtual_clock
        assert setup.monitor.clock is virtual_clock
        assert setup.workload_db.clock is virtual_clock
