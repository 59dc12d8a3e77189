"""Tests for the integrated monitor and its sensors."""

import ast
import inspect
import sys
from collections import namedtuple
from pathlib import Path
from unittest import mock

import pytest

from repro.clock import VirtualClock
from repro.config import EngineConfig, MonitorConfig
from repro.core import monitor as monitor_module
from repro.core import sensors as sensors_module
from repro.core.ima import WORKLOAD
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.sensors import statement_hash, statement_key
from repro.engine import session as session_module
from repro.errors import ReproError
from repro.execution.executor import ExecutionMetrics
from repro.setups import monitoring_setup, original_setup

#: An ``ima_workload`` row without its leading seq, by column name.
WorkloadRow = namedtuple(
    "WorkloadRow", [column.name for column in WORKLOAD.ima_schema.columns[1:]])


def workload_rows(monitor):
    """The monitor's workload window as the ``ima_workload`` rows its
    records derive (without their seq)."""
    return [WorkloadRow(*WORKLOAD.facts(record, None))
            for record in monitor.workload.values()]


class TestStatementHash:
    def test_stable(self):
        assert statement_hash("select 1") == statement_hash("select 1")

    def test_distinct_texts_differ(self):
        assert statement_hash("select 1") != statement_hash("select 2")

    def test_fits_signed_64bit(self):
        for text in ("a", "b", "select * from t", "x" * 1000):
            value = statement_hash(text)
            assert -(2**63) <= value < 2**63

    def test_key_is_the_hash_of_the_shape(self):
        assert statement_key("select 1") == statement_key("SELECT  2")
        assert statement_key("select 1") == statement_hash("select ?")
        assert statement_key("select 1") != statement_key("select 'a', 1")
        assert statement_key("select 'it") == statement_hash("select 'it")


class TestMonitorRecording:
    @pytest.fixture
    def monitor(self):
        return IntegratedMonitor(MonitorConfig(statement_buffer_size=5),
                                 VirtualClock(1000.0))

    def test_record_statement_frequency(self, monitor):
        text_hash = statement_hash("q")
        assert monitor.record_statement("q", text_hash, 1.0) is True
        assert monitor.record_statement("q", text_hash, 2.0) is False
        record = monitor.statements.get(text_hash)
        assert record.frequency == 2
        assert record.first_seen == 1.0
        assert record.last_seen == 2.0

    def test_statement_buffer_wraps(self, monitor):
        for i in range(10):
            monitor.record_statement(f"q{i}", statement_hash(f"q{i}"), 1.0)
        assert len(monitor.statements) == 5  # paper's moving window

    def test_long_text_truncated(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "MAX_STATEMENT_TEXT", 10)
        monitor = IntegratedMonitor()
        text = "select " + "x" * 100
        monitor.record_statement(text, statement_hash(text), 1.0)
        record = monitor.statements.get(statement_hash(text))
        assert len(record.query_text) == 10

    def test_record_references(self, monitor):
        text_hash = statement_hash("q")
        monitor.record_references(text_hash, ("protein",),
                                  [("protein", "tax_id")], ("idx_tax",))
        types = {r.object_type for r in monitor.references.values()}
        assert types == {"table", "attribute", "index"}
        assert monitor.tables.get("protein").frequency == 1
        assert monitor.attributes.get(("protein", "tax_id")) is not None
        monitor.record_references(text_hash, ("protein",))
        assert monitor.tables.get("protein").frequency == 2

    def test_statistics_rate_limited(self, monitor):
        clock = monitor.clock
        assert monitor.record_statistics({"locks_held": 1}, clock.now())
        assert not monitor.record_statistics({"locks_held": 2}, clock.now())
        clock.advance(2.0)
        assert monitor.record_statistics({"locks_held": 3}, clock.now())
        assert len(monitor.statistics) == 2

    def test_statistics_ignores_unknown_fields(self, monitor):
        monitor.record_statistics({"locks_held": 4, "bogus": 9}, 1000.0)
        record = monitor.statistics.values()[0]
        assert record.locks_held == 4
        assert not hasattr(record, "bogus")


class TestMonitorSensorsPipeline:
    def test_full_statement_recorded(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int not null, primary key (a))")
        session.execute("insert into t values (1), (2)")
        result = session.execute("select count(*) from t where a > 0")
        assert result.scalar() == 2
        text_hash = statement_key("select count(*) from t where a > 0")
        statement = monitor.statements.get(text_hash)
        assert statement is not None
        assert statement.frequency == 1
        workload = [w for w in workload_rows(monitor)
                    if w.text_hash == text_hash]
        assert len(workload) == 1
        record = workload[0]
        assert record.actual_io + record.actual_cpu > 0
        assert record.estimated_io + record.estimated_cpu > 0
        assert record.wallclock_s >= 0
        assert record.rows_returned == 1

    def test_repeats_bump_frequency_not_statements(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int)")
        for _ in range(5):
            session.execute("select a from t")
        text_hash = statement_key("select a from t")
        assert monitor.statements.get(text_hash).frequency == 5
        executions = [w for w in workload_rows(monitor)
                      if w.text_hash == text_hash]
        assert len(executions) == 5

    def test_references_captured_from_optimizer(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int, b int)")
        session.execute("select a from t where b = 1")
        names = {(r.object_type, r.object_name)
                 for r in monitor.references.values()}
        assert ("table", "t") in names
        assert ("attribute", "t.b") in names

    def test_error_still_logged(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        with pytest.raises(Exception):
            session.execute("select * from missing_table")
        text_hash = statement_key("select * from missing_table")
        assert monitor.statements.get(text_hash) is not None
        errored = [w for w in workload_rows(monitor)
                   if w.text_hash == text_hash]
        assert len(errored) == 1
        assert errored[0].actual_io + errored[0].actual_cpu == 0.0

    def test_sensor_calls_counted_and_timed(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int)")
        before = monitor.sensor_calls
        session.execute("select a from t")
        assert monitor.sensor_calls > before
        assert monitor.sensor_time_s > 0
        assert monitor.average_sensor_call_s > 0
        monitor.reset_counters()
        assert monitor.average_sensor_call_s == 0.0

    @pytest.mark.parametrize("text, logical_sensors", [
        ("select a from t where b = 10", 4),
        ("update t set b = 11 where a = 1", 3)])
    def test_prepared_statement_pays_one_start_sensor(
            self, monkeypatch, text, logical_sensors):
        """A prepared statement's parse (and, for a SELECT, plan)
        sensors are recorded inside statement_start: the same count of
        logical sensors and the same workload record, without the
        separate fires."""
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int not null, b int, "
                        "primary key (a))")
        session.execute("create index i_b on t (b)")
        session.execute("insert into t values (1, 10), (2, 20)")
        fired = []
        for name in ("parse_complete", "optimize_complete"):
            real = getattr(session.sensors, name)
            monkeypatch.setattr(
                session.sensors, name,
                lambda *args, _name=name, _real=real, **kwargs: (
                    fired.append(_name), _real(*args, **kwargs))[1])
        records = []
        for _ in range(2):
            fired.clear()
            calls = monitor.sensor_calls
            session.execute(text)
            assert monitor.sensor_calls - calls == logical_sensors
            records.append(workload_rows(monitor)[-1])
        assert fired == []  # the second run was prepared
        planned, prepared = records
        assert prepared.text_hash == planned.text_hash
        assert (prepared.estimated_io, prepared.estimated_cpu,
                prepared.used_indexes) == (
            planned.estimated_io, planned.estimated_cpu,
            planned.used_indexes)
        assert monitor.statements.get(planned.text_hash).frequency == 2

    def test_literal_distinct_texts_are_one_known_statement(self,
                                                            monkeypatch):
        """A new literal vector of a known shape takes the
        known-statement path in all three keyed rings, and still
        leaves one workload row per execution."""
        monkeypatch.setattr(monitor_module, "PLAN_CAPTURE_MIN_COST", 1e-9)
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int not null, b int, "
                        "primary key (a))")
        session.execute("insert into t values " + ", ".join(
            f"({i}, {i % 7})" for i in range(100)))
        session.execute("select b from t where a < 3")
        rings = (monitor.statements, monitor.references, monitor.plans)
        sizes = [len(ring) for ring in rings]
        appended = monitor.workload.total_appended
        for bound in (50, 7, 99, 0):
            assert len(session.execute(
                f"select b from t where a < {bound}").rows) == bound
        assert [len(ring) for ring in rings] == sizes
        assert monitor.workload.total_appended == appended + 4
        key = statement_key("select b from t where a < 1000")
        record = monitor.statements.get(key)
        assert record.frequency == 5
        assert record.query_text == "select b from t where a < 3"  # first seen
        assert monitor.plans.get(key) is not None
        # The estimate is the prepared plan's (costed for a < 3); the
        # actuals are each execution's own, so they can diverge.
        executions = [w for w in workload_rows(monitor)
                      if w.text_hash == key]
        assert len({(w.estimated_io, w.estimated_cpu)
                    for w in executions}) == 1
        assert [w.rows_returned for w in executions] == [3, 50, 7, 99, 0]
        assert len({(w.actual_io, w.actual_cpu) for w in executions}) > 1

    def test_unlexable_text_is_its_own_statement(self):
        setup = monitoring_setup()
        setup.engine.create_database("db")
        session = setup.engine.connect("db")
        for text in ("select 'open", "select 'open"):
            with pytest.raises(Exception):
                session.execute(text)
        # never parsed, so never in the statement ring; counted twice
        key = statement_hash("select 'open")
        assert setup.monitor.statements.get(key) is None
        assert [w.text_hash for w in workload_rows(setup.monitor)] \
            == [key, key]

    @staticmethod
    def _parsed_select(sensors, text):
        """One parsed SELECT of ``t`` through the sensors, unplanned."""
        ctx = sensors.statement_start(statement_key(text))
        sensors.parse_complete(ctx, "select", ("t",))
        sensors.execute_complete(ctx, text, 0, ExecutionMetrics(), 0.0,
                                 None)

    def test_statement_cache_skips_rereferencing(self):
        monitor = IntegratedMonitor(MonitorConfig())
        sensors = MonitorSensors(monitor)
        self._parsed_select(sensors, "select a from t")
        first_freq = monitor.tables.get("t").frequency
        self._parsed_select(sensors, "select a from t")
        assert monitor.tables.get("t").frequency == first_freq  # cached

    def test_evicted_statement_relogs(self):
        # A one-statement ring: two alternating texts evict each other,
        # so every execution inserts its record and logs its references.
        monitor = IntegratedMonitor(MonitorConfig(statement_buffer_size=1))
        sensors = MonitorSensors(monitor)
        for runs, text in enumerate(("select a from t",
                                     "select b from t") * 3, start=1):
            self._parsed_select(sensors, text)
            assert monitor.tables.get("t").frequency == runs
        assert monitor.tables.get("t").frequency == 6
        assert monitor.statements.evicted == 5

    def test_used_indexes_recorded(self):
        setup = monitoring_setup()
        engine, monitor = setup.engine, setup.monitor
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int not null, b int, "
                        "primary key (a))")
        values = ", ".join(f"({i}, {i})" for i in range(2000))
        session.execute(f"insert into t values {values}")
        session.execute("create index i_b on t (b)")
        session.execute("create statistics on t")
        session.execute("select a from t where b = 3")
        records = [w for w in workload_rows(monitor) if w.used_indexes]
        assert any("i_b" in w.used_indexes for w in records)


class TestOriginalBuildStaysClean:
    def test_no_monitoring_state_accumulates(self):
        setup = original_setup()
        engine = setup.engine
        engine.create_database("db")
        session = engine.connect("db")
        session.execute("create table t (a int)")
        session.execute("select a from t")
        assert setup.monitor is None
        assert engine.sensors is None and session.sensors is None

    def test_runs_no_monitoring_code(self):
        """Original is the engine with no monitoring code: no statement
        enters a frame of the monitor or the sensors module, prepared
        or planned, query, DML, DDL or failing."""
        session = _session(original_setup())
        session.execute("select b from t where a = 1")
        statements = {
            "prepared select": "select b from t where a = 2",
            "cold select": "select a, b from t where b > 5",
            "dml": "update t set b = 11 where a = 1",
            "ddl": "create index i_b on t (b)",
            "failing": "select * from missing_table",
        }
        watched = {monitor_module.__file__, sensors_module.__file__}
        entered = {}
        for label, text in statements.items():
            frames = entered[label] = []

            def profile(frame, event, _arg, frames=frames):
                if event == "call" and frame.f_code.co_filename in watched:
                    frames.append(frame.f_code.co_name)

            hits = session.plan_cache_hits
            sys.setprofile(profile)
            try:
                session.execute(text)
            except ReproError:
                assert label == "failing"
            finally:
                sys.setprofile(None)
            assert (session.plan_cache_hits > hits) == (label == "prepared select")
        assert entered == {label: [] for label in statements}


class TestSensorsHoldNoEngineHandle:
    """Sensors log values already in hand, which is what keeps a sensor
    call at section V-A's 1–2 µs: the monitor and its sensors are built
    from a config and a clock alone and import nothing from the engine,
    catalog or storage, so no record path can call back into them."""

    ENGINE_SIDE = ("repro.engine", "repro.catalog", "repro.storage")

    @pytest.mark.parametrize("module", [monitor_module, sensors_module],
                             ids=["monitor", "sensors"])
    def test_imports_nothing_from_the_engine_side(self, module):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):  # `if TYPE_CHECKING:` imports too
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported += [f"{node.module}.{alias.name}"
                             for alias in node.names]
        assert [name for name in imported
                if any(name == side or name.startswith(side + ".")
                       for side in self.ENGINE_SIDE)] == []

    def test_monitor_takes_config_and_clock_only(self):
        assert list(inspect.signature(IntegratedMonitor).parameters) == [
            "config", "clock"]

    def test_sensors_take_the_monitor_only(self):
        assert list(inspect.signature(MonitorSensors).parameters) == [
            "monitor"]


def _session(setup):
    setup.engine.create_database("db")
    session = setup.engine.connect("db")
    session.execute("create table t (a int not null, b int, "
                    "primary key (a))")
    session.execute("insert into t values " + ", ".join(
        f"({i}, {i % 7})" for i in range(40)))
    return session


class TestPlannedAndPreparedPathsAgree:
    """A prepared statement's sensors record what planning it again
    would: the same stream through an engine that plans every
    execution and one that prepares leaves the same monitor contents."""

    STREAM = (
        "create table u (b int not null, d varchar(8), primary key (b))",
        "insert into u values (0, 'zero'), (1, 'one'), (3, 'three')",
        "create index i_b on t (b)",
        "select a from t where b = 3",
        "select a from t where b = 3",
        "select a from t where b = 4",
        "select count(*) from t where a < 10",
        "select t.a, u.d from t join u on t.b = u.b where t.a > 30",
        "select t.a, u.d from t join u on t.b = u.b where t.a > 30",
        "update t set b = 6 where a = 4",
        "update t set b = 5 where a = 5",
        "begin",
        "delete from t where a = 39",
        "insert into t values (39, 4)",
        "commit",
        "select * from missing_table",
        "select a from t where b = 3",
        "select u.d from u where b = 1",
    )

    @staticmethod
    def _run(plan_cache_size, statement_buffer_size):
        setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
            statement_buffer_size=statement_buffer_size)),
            clock=VirtualClock(1000.0))
        with mock.patch.object(session_module, "PLAN_CACHE_SIZE",
                               plan_cache_size), \
                mock.patch.object(monitor_module, "PLAN_CAPTURE_MIN_COST",
                                  1e-9):
            session = _session(setup)
            for text in TestPlannedAndPreparedPathsAgree.STREAM:
                try:
                    session.execute(text)
                except ReproError:
                    pass
        return setup.monitor, session

    # A one-statement ring evicts a statement whenever the next one
    # differs, so a repeated shape that the plan cache prepared logs
    # its references and plan again: the prepared path's logging is
    # compared too.
    @pytest.mark.parametrize("statement_buffer_size", [1000, 1])
    def test_same_rings(self, statement_buffer_size):
        planned, planned_session = self._run(0, statement_buffer_size)
        prepared, prepared_session = self._run(256, statement_buffer_size)
        assert planned_session.plan_cache_hits == 0
        assert prepared_session.plan_cache_hits > 0

        def contents(monitor):
            timing = {"ts", "optimize_time_s", "execute_time_s",
                      "wallclock_s", "monitor_time_s"}
            return {
                "statements": [(r.text_hash, r.frequency)
                               for r in monitor.statements.values()],
                "references": monitor.references.values(),
                "tables": monitor.tables.values(),
                "attributes": monitor.attributes.values(),
                "indexes": monitor.indexes.values(),
                "plans": [(r.text_hash, r.estimated_cost, r.plan_text)
                          for r in monitor.plans.values()],
                "workload": [
                    {field: value for field, value in r._asdict().items()
                     if field not in timing}
                    for r in workload_rows(monitor)],
            }

        assert contents(prepared) == contents(planned)
        assert len(planned.plans) > 0


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, lock):
        self._lock = lock
        self.acquired = 0

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestCachedStatementIsOneRecording:
    def test_one_lock_acquisition_and_no_context(self, monkeypatch):
        """A repeated cached statement is recorded in one critical
        section of the monitor and builds no per-statement context."""
        setup = monitoring_setup(clock=VirtualClock(1000.0))
        session = _session(setup)
        monitor = setup.monitor
        text = "select b from t where a = 1"
        for _ in range(2):  # prepared, and its statement known
            session.execute(text)
        # Every lock the monitor or one of its rings holds, counted
        # once per lock object (rings may share their owner's lock).
        proxies = {}
        rings = [value for value in vars(monitor).values()
                 if hasattr(value, "snapshot")]
        for owner in (monitor, *rings):
            for name, value in list(vars(owner).items()):
                if name.endswith("_lock"):
                    proxy = proxies.setdefault(id(value),
                                               _CountingLock(value))
                    monkeypatch.setattr(owner, name, proxy)
        contexts = []
        real = monitor_module.StatementContext
        monkeypatch.setattr(monitor_module, "StatementContext",
                            lambda *args: contexts.append(args) or real(*args))
        hits = session.plan_cache_hits
        appended = monitor.workload.total_appended
        acquired = sum(proxy.acquired for proxy in proxies.values())
        session.execute(text)
        assert session.plan_cache_hits == hits + 1
        assert sum(proxy.acquired
                   for proxy in proxies.values()) - acquired == 1
        assert contexts == []
        assert monitor.workload.total_appended == appended + 1
        assert monitor.statements.get(statement_key(text)).frequency == 3
