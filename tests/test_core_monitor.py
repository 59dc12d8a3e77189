"""Tests for the integrated monitor and its sensors."""

import pytest

from repro.clock import VirtualClock
from repro.config import EngineConfig, MonitorConfig
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.sensors import (NullSensors, statement_hash,
                                statement_key)
from repro.setups import monitoring_setup, original_setup


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


class TestNullSensors:
    def test_all_methods_are_noops(self):
        sensors = NullSensors()
        ctx = sensors.statement_start("select 1")
        assert ctx is None
        sensors.parse_complete(ctx, "select", ("t",))
        sensors.optimize_complete(ctx, 0, 0, (), (), (), 0.0)
        sensors.execute_complete(ctx, 0, 0, 0, 0, 0, 0, 0.0, 0.0)
        sensors.statement_error(ctx, "err")
        called = []
        sensors.sample_statistics(lambda: called.append(1) or {})
        assert called == []  # supplier never invoked on the Original build


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

    def test_long_text_truncated(self):
        monitor = IntegratedMonitor(MonitorConfig(max_statement_text=10))
        text = "select " + "x" * 100
        monitor.record_statement(text, statement_hash(text), 1.0)
        record = monitor.statements.get(statement_hash(text))
        assert len(record.text) == 10

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
        workload = [w for w in monitor.workload.values()
                    if w.text_hash == text_hash]
        assert len(workload) == 1
        record = workload[0]
        assert record.actual_cost > 0
        assert record.estimated_cost > 0
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
        executions = [w for w in monitor.workload.values()
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
        errored = [w for w in monitor.workload.values()
                   if w.text_hash == text_hash]
        assert len(errored) == 1
        assert errored[0].actual_cost == 0.0

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
            records.append(list(monitor.workload.values())[-1])
        assert fired == []  # the second run was prepared
        planned, prepared = records
        assert prepared.text_hash == planned.text_hash
        assert (prepared.estimated_io, prepared.estimated_cpu,
                prepared.used_indexes) == (
            planned.estimated_io, planned.estimated_cpu,
            planned.used_indexes)
        assert monitor.statements.get(planned.text_hash).frequency == 2

    def test_literal_distinct_texts_are_one_known_statement(self):
        """A new literal vector of a known shape takes the
        known-statement path in all three keyed rings, and still
        leaves one workload row per execution."""
        setup = monitoring_setup(EngineConfig(monitor=MonitorConfig(
            plan_capture_min_cost=1e-9)))
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
        assert record.text == "select b from t where a < 3"  # first seen
        assert monitor.plans.get(key) is not None
        # The estimate is the prepared plan's (costed for a < 3); the
        # actuals are each execution's own, so they can diverge.
        executions = [w for w in monitor.workload.values()
                      if w.text_hash == key]
        assert len({w.estimated_cost for w in executions}) == 1
        assert [w.rows_returned for w in executions] == [3, 50, 7, 99, 0]
        assert len({w.actual_cost for w in executions}) > 1

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
        assert [w.text_hash for w in setup.monitor.workload.values()] \
            == [key, key]

    def test_statement_cache_skips_rereferencing(self):
        config = MonitorConfig(statement_cache_enabled=True)
        monitor = IntegratedMonitor(config)
        sensors = MonitorSensors(monitor)
        ctx1 = sensors.statement_start("select a from t")
        sensors.parse_complete(ctx1, "select", ("t",))
        first_freq = monitor.tables.get("t").frequency
        ctx2 = sensors.statement_start("select a from t")
        sensors.parse_complete(ctx2, "select", ("t",))
        assert monitor.tables.get("t").frequency == first_freq  # cached

    def test_statement_cache_disabled_relogs(self):
        config = MonitorConfig(statement_cache_enabled=False)
        monitor = IntegratedMonitor(config)
        sensors = MonitorSensors(monitor)
        for _ in range(3):
            ctx = sensors.statement_start("select a from t")
            sensors.parse_complete(ctx, "select", ("t",))
        assert monitor.tables.get("t").frequency == 3

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
        records = [w for w in monitor.workload.values() if w.used_indexes]
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
        assert isinstance(engine.sensors, NullSensors)
