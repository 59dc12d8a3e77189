"""The analyzer's one workload-view fold, and templates as statements.

The fold must build exactly the view the plain table-by-table loops it
replaced built (kept here as the oracle), whatever was appended, purged
or compacted before the scan.  The monitor records the literal variants
of one shape as one statement carrying their summed frequency, so each
profile the advisor reads is one template.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faultsim
from repro.catalog.schema import StorageStructure
from repro.clock import VirtualClock
from repro.config import EngineConfig
from repro.core.analyzer import Analyzer
from repro.core.analyzer.index_advisor import IndexAdvisor
from repro.core.analyzer.recommendations import RecommendationKind
from repro.core.analyzer.workload_view import (
    StatementProfile,
    TableProfile,
    WorkloadView,
    fold,
    view_from_monitor,
    view_from_workload_db,
)
from repro.core.sensors import statement_hash, statement_key
from repro.core.workload_db import WORKLOAD_TABLES, WorkloadDatabase
from repro.engine import database as database_module
from repro.engine import EngineInstance
from repro.errors import AnalyzerError, ReproError

TEXTS = tuple(
    [f"select a from t where b = {n}" for n in range(4)]
    + [f"select a, b from t where c = 'v{n}' and b < {n}" for n in range(3)]
    + ["insert into t values (1, 2, 'x')", "select count(*) from t"])
HASHES = tuple(statement_hash(text) for text in TEXTS)


def target_database():
    engine = EngineInstance(EngineConfig())
    database = engine.create_database("target")
    with engine.connect("target") as session:
        session.execute("create table t (a int, b int, c varchar(8))")
        session.execute("insert into t values " + ", ".join(
            f"({i}, {i % 500}, 'v{i % 3}')" for i in range(2000)))
        session.execute("create statistics on t")
    return database


def small_workload_db(clock, pool_pages=4):
    """A workload DB whose pool is far smaller than its tables, so a
    fold reads pages from the (fault-injectable) disk."""
    with mock.patch.object(database_module, "BUFFER_POOL_PAGES", pool_pages):
        return WorkloadDatabase(clock)


def reference_view(workload_db):
    """The view as the straightforward full build computes it: the
    table-by-table loops ``view_from_workload_db`` consisted of before
    it became a fold, kept as the oracle."""
    view = WorkloadView()
    database = workload_db.database

    # Statements: keep the newest capture per hash.
    newest = {}
    for _rowid, row in database.storage_for("wl_statements").scan():
        captured_at, text_hash = row[0], row[1]
        current = newest.get(text_hash)
        if current is None or captured_at >= current[0]:
            newest[text_hash] = row
    for text_hash, row in newest.items():
        view.statements[text_hash] = StatementProfile(
            text_hash=text_hash, text=row[2], frequency=row[3],
        )

    for _rowid, row in database.storage_for("wl_workload").scan():
        (_captured, text_hash, _session, _ts, _opt, _exec, wallclock,
         est_io, est_cpu, act_io, act_cpu, _lr, _pr, _tp, _rr,
         _used_indexes, monitor_s) = row[:17]
        profile = view.statements.get(text_hash)
        if profile is None:
            profile = StatementProfile(text_hash=text_hash, text="")
            view.statements[text_hash] = profile
        profile.executions += 1
        profile.total_actual_io += act_io
        profile.total_actual_cpu += act_cpu
        profile.total_estimated_io += est_io
        profile.total_estimated_cpu += est_cpu
        profile.total_wallclock_s += wallclock
        profile.total_monitor_s += monitor_s

    for _rowid, row in database.storage_for("wl_references").scan():
        (_captured, text_hash, object_type, object_name, table_name,
         _freq) = row[:6]
        profile = view.statements.get(text_hash)
        if profile is None:
            continue
        if object_type == "table":
            profile.referenced_tables.add(object_name)
        elif object_type == "attribute":
            table, _, column = object_name.partition(".")
            profile.referenced_attributes.add((table, column))

    newest_tables = {}
    for _rowid, row in database.storage_for("wl_tables").scan():
        captured_at, table_name = row[0], row[1]
        current = newest_tables.get(table_name)
        if current is None or captured_at >= current[0]:
            newest_tables[table_name] = row
    for table_name, row in newest_tables.items():
        view.tables[table_name] = TableProfile(
            table_name=table_name, frequency=row[2], structure=row[3],
            data_pages=row[4], overflow_pages=row[5], row_count=row[6],
            has_statistics=bool(row[7]),
        )

    newest_plans = {}
    for _rowid, row in database.storage_for("wl_plans").scan():
        captured_at, text_hash = row[0], row[1]
        current = newest_plans.get(text_hash)
        if current is None or captured_at >= current[0]:
            newest_plans[text_hash] = row
    for text_hash, row in newest_plans.items():
        view.plans[text_hash] = row[3]

    newest_attrs = {}
    for _rowid, row in database.storage_for("wl_attributes").scan():
        captured_at, table_name, attribute = row[0], row[1], row[2]
        key = (table_name, attribute)
        current = newest_attrs.get(key)
        if current is None or captured_at >= current[0]:
            newest_attrs[key] = row
    for (table_name, attribute), row in newest_attrs.items():
        if not row[4]:  # has_histogram
            view.attributes_without_histograms.add((table_name, attribute))

    # New with the fold: the statistics samples, minus the capture
    # stamp in front and the source seq behind.
    view.statistics = [
        row[1:14] for _rowid, row in
        database.storage_for("wl_statistics").scan()]
    return view


# One row per draw, as (table, columns-without-captured_at-and-seq).
a_hash = st.sampled_from(HASHES)
cost = st.integers(0, 400).map(lambda n: n * 0.25)
a_row = st.one_of(
    st.tuples(st.integers(0, len(TEXTS) - 1), st.integers(1, 50)).map(
        lambda d: ("wl_statements",
                   (HASHES[d[0]], TEXTS[d[0]], d[1], 0.0, 0.0))),
    st.tuples(a_hash, cost, cost, cost, cost,
              st.sampled_from(("", "idx_a", "idx_a,idx_b"))).map(
        lambda d: ("wl_workload",
                   (d[0], 1, 0.0, 0.0, 0.0, 0.5, d[1], d[2], d[3], d[4],
                    3, 1, 10, 1, d[5], 0.25))),
    st.tuples(a_hash, st.sampled_from(
        (("table", "t"), ("attribute", "t.b"), ("attribute", "t.c"),
         ("index", "idx_a")))).map(
        lambda d: ("wl_references", (d[0], d[1][0], d[1][1], "t", 1))),
    st.tuples(st.sampled_from(("t", "u")), st.integers(0, 30)).map(
        lambda d: ("wl_tables", (d[0], 1, "heap", 100, d[1], 50, 0))),
    st.tuples(st.sampled_from(("a", "b", "c")), st.integers(0, 1)).map(
        lambda d: ("wl_attributes", ("t", d[0], 1, d[1]))),
    st.tuples(a_hash, st.sampled_from(("SeqScan(t)", "IndexScan(t)"))).map(
        lambda d: ("wl_plans", (d[0], 10.0, d[1], 0.0))),
    st.integers(0, 9).map(
        lambda n: ("wl_statistics", (float(n),) + (n,) * 12)),
)


a_batch = st.tuples(st.lists(a_row, min_size=1, max_size=25),
                     st.sampled_from((0.0, 0.0, -5.0)), st.integers(0, 40))
a_disturbance = st.tuples(
    st.sampled_from(("flush", "purge", "compact")), st.integers(0, 400),
    st.sampled_from([schema.name for schema in WORKLOAD_TABLES]))


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.one_of(a_batch, a_disturbance),
                      min_size=1, max_size=12))
def test_the_fold_builds_what_the_plain_loops_built(steps):
    clock = VirtualClock(1_000_000.0)
    workload_db = small_workload_db(clock)
    for step in steps:
        if isinstance(step[0], list):
            # A negative skew is a clock stepping back: later rows that
            # were captured earlier must not displace newer facts.
            rows, skew, wait = step
            by_table = {}
            for table, columns in rows:
                by_table.setdefault(table, []).append(columns)
            for table, batch in by_table.items():
                workload_db.append(table, batch, clock.now() + skew)
            clock.advance(wait)
            continue
        what, age, table = step
        if what == "flush":
            workload_db.flush()
        elif what == "purge":
            workload_db.purge_older_than(clock.now() - age)
        else:
            workload_db.database.modify_table(
                table, StorageStructure.HEAP, main_pages=8)
    view, rows = fold(workload_db)
    assert view == reference_view(workload_db)
    assert view == view_from_workload_db(workload_db)
    assert rows == workload_db.total_rows()


TARGET = target_database()


# -- hand-written scenarios ----------------------------------------------------

def append_history(workload_db, clock, texts, executions=3):
    """What the monitor persists after running each text ``executions``
    times: one statement row per :func:`statement_key`, holding the
    first text of that shape and the shape's summed frequency."""
    now = clock.now()
    statements = {}
    for text in texts:
        statements.setdefault(statement_key(text), [text, 0])[1] += executions
    workload_db.append("wl_statements", [
        (key, text, frequency, now, now)
        for key, (text, frequency) in statements.items()
    ], now)
    workload_db.append("wl_workload", [
        (statement_key(text), 1, now, 0.0, 0.0, 0.5, 40.0, 2.0,
         60.0 + i, 3.0, 5, 1, 200, 1, "", 0.25)
        for i, text in enumerate(texts) for _ in range(executions)
    ], now)
    workload_db.append("wl_references", [
        (key, kind, name, "t", 1)
        for key in statements
        for kind, name in (("table", "t"), ("attribute", "t.b"))
    ], now)
    workload_db.append("wl_statistics", [(now,) + (4,) * 12], now)
    clock.advance(10)


@pytest.fixture
def recorded():
    clock = VirtualClock(1_000_000.0)
    workload_db = small_workload_db(clock)
    append_history(workload_db, clock, TEXTS[:7])
    return workload_db, clock


def logical_reads(workload_db):
    stats = workload_db.database.pool.stats()
    return stats.hits + stats.misses


class TestScan:
    def test_second_scan_agrees_with_the_first(self, recorded):
        workload_db, _clock = recorded
        analyzer = Analyzer(TARGET)
        first = analyzer.analyze_workload_db(workload_db)
        second = analyzer.analyze_workload_db(workload_db)
        assert first.rows_folded == second.rows_folded == \
            workload_db.total_rows()
        assert second.view == first.view
        assert second.recommendations == first.recommendations
        assert second.recommendations

    def test_references_without_a_statement_are_dropped(self):
        clock = VirtualClock(1_000_000.0)
        workload_db = small_workload_db(clock)
        workload_db.append("wl_references",
                           [(HASHES[0], "table", "t", "t", 1)], clock.now())
        assert view_from_workload_db(workload_db).statements == {}
        workload_db.append("wl_statements",
                           [(HASHES[0], TEXTS[0], 1, 0.0, 0.0)], clock.now())
        view = view_from_workload_db(workload_db)
        assert view.statements[HASHES[0]].referenced_tables == {"t"}

    def test_report_header_says_how_the_scan_went(self, recorded):
        workload_db, _clock = recorded
        analyzer = Analyzer(TARGET)
        first = analyzer.analyze_workload_db(workload_db)
        assert first.whatif_calls == 2  # two shapes among 7 selects
        header = first.render_text().splitlines()[3]
        assert header.startswith(
            "statements analyzed: 2, 2 what-if calls, "
            f"{workload_db.total_rows()} rows read")

    def test_trends_read_the_sample_timestamps(self, recorded):
        """wl_statistics rows carry a trailing src_seq; the trend input
        must still start at ``ts``."""
        workload_db, clock = recorded
        for held in (6, 8, 10):
            workload_db.append(
                "wl_statistics", [(clock.now(),) + (held,) * 12], clock.now())
            clock.advance(10)
        report = Analyzer(TARGET).analyze_workload_db(workload_db)
        trend = report.trends["locks_held"]
        assert trend.slope_per_second == pytest.approx(0.2)
        assert [s.locks_held for s in report.locks_diagram.samples] == \
            [4, 6, 8, 10]


class TestFaults:
    def test_scan_fault_fires_before_any_read(self, recorded):
        workload_db, _clock = recorded
        analyzer = Analyzer(TARGET)
        before = logical_reads(workload_db)
        faultsim.arm_from_spec("analyzer.scan:once")
        with pytest.raises(AnalyzerError):
            analyzer.analyze_workload_db(workload_db)
        assert logical_reads(workload_db) == before
        assert analyzer.analyze_workload_db(workload_db).view == \
            view_from_workload_db(workload_db)

    @pytest.mark.parametrize("after", [0, 2, 5])
    def test_fault_in_the_middle_of_a_fold(self, recorded, after):
        workload_db, clock = recorded
        analyzer = Analyzer(TARGET)
        for round_no in range(4):  # enough pages to read from disk
            append_history(workload_db, clock, TEXTS[round_no:round_no + 5])
        workload_db.flush()
        faultsim.arm_from_spec(f"disk.read:once,after={after}")
        with pytest.raises(ReproError):
            analyzer.analyze_workload_db(workload_db)
        (fault,) = faultsim.get_injector().stats("disk.read")
        assert fault.errors_raised == 1
        # The failed scan left nothing behind.
        report = analyzer.analyze_workload_db(workload_db)
        assert report.view == reference_view(workload_db)
        assert report.rows_folded == workload_db.total_rows()


# -- templates are statements ---------------------------------------------------

def profile(text, frequency=1, cost=100.0):
    return StatementProfile(
        text_hash=statement_hash(text), text=text, frequency=frequency,
        executions=frequency, total_actual_io=cost * frequency)


@pytest.fixture(scope="module")
def nref_db():
    from repro.setups import daemon_setup
    from repro.workloads import NrefScale, load_nref
    setup = daemon_setup("nref")
    database = setup.engine.database("nref")
    load_nref(database, NrefScale(proteins=300), main_pages=2)
    for table in ("protein", "organism", "sequence"):
        database.collect_statistics(table)
    return database


@pytest.fixture
def recording(fresh_nref_setup):
    """A monitored NREF setup with statistics, and a function that runs
    texts through one of its sessions."""
    database = fresh_nref_setup.engine.database("nref")
    database.collect_statistics("protein")
    session = fresh_nref_setup.engine.connect("nref")

    def run(*texts):
        for text in texts:
            session.execute(text)
    return fresh_nref_setup, run


def persisted_view(setup):
    setup.daemon.poll_once()
    setup.daemon.flush()
    return view_from_workload_db(setup.workload_db)


class TestTemplates:
    def test_variants_advise_like_one_profile_with_their_frequency(
            self, recording):
        setup, run = recording
        variants = [f"select name from protein where tax_id = {n}"
                    for n in range(8)]
        for n, text in enumerate(variants):
            run(*[text] * (n + 1))
        database = setup.engine.database("nref")
        key = statement_key(variants[0])
        assert {statement_key(text) for text in variants} == {key}
        for view in (view_from_monitor(setup.monitor, database),
                     persisted_view(setup)):
            (recorded,) = [p for p in view.statements.values()
                           if "tax_id" in p.text]
            assert recorded.text_hash == key
            assert recorded.frequency == recorded.executions == 36
            result = IndexAdvisor(database).advise(view.statements.values())
            assert result.whatif_calls == 1
            assert result.votes == {("protein", ("tax_id",)): 36}
            (recommendation,) = result.recommendations
            assert recommendation.statements_affected == (key,)
            assert list(result.virtual_costs) == [key]

    def test_the_advisor_costs_the_recorded_text(self, recording,
                                                monkeypatch):
        from repro.core.analyzer import index_advisor
        setup, run = recording
        run("select name from protein where tax_id = 1",
            "select name from protein where tax_id = 2")
        view = view_from_monitor(setup.monitor)
        (recorded,) = view.statements.values()
        assert recorded.text == "select name from protein where tax_id = 1"
        costed = []
        what_if = index_advisor.what_if_optimize
        monkeypatch.setattr(
            index_advisor, "what_if_optimize",
            lambda database, statement, *rest: (
                costed.append(statement),
                what_if(database, statement, *rest))[1])
        IndexAdvisor(setup.engine.database("nref")).advise(
            view.statements.values())
        assert [statement.where.right.value for statement in costed] == [1]

    def test_a_different_column_or_operator_is_a_different_template(
            self, recording):
        setup, run = recording
        run("select name from protein where tax_id = 90",
            "select name from protein where tax_id = 91",
            "select name from protein where source_id = 90",
            "select name from protein where tax_id < 90")
        view = view_from_monitor(setup.monitor)
        assert len(view.statements) == 3
        result = IndexAdvisor(setup.engine.database("nref")).advise(
            view.statements.values())
        assert result.whatif_calls == 3

    def test_join_column_that_is_also_the_point_column(self, nref_db):
        """The paper's 50k-test shape: ``joins[:1] + eqs`` used to be
        ``(nref_id, nref_id)``, which no catalog accepts, and the
        statement lost its whole what-if."""
        text = ("select p.nref_id, s.sequence from protein p "
                "join sequence s on p.nref_id = s.nref_id "
                "where p.nref_id = 'NF00000007' and s.ordinal < 100")
        advisor = IndexAdvisor(nref_db)
        keys = [(d.table_name, d.column_names)
                for d in advisor.candidates_for(text)]
        assert len(keys) == len(set(keys))
        assert all(len(set(columns)) == len(columns) for _, columns in keys)
        result = advisor.advise([profile(text, frequency=5)])
        assert result.skipped_statements == 0
        assert result.skipped_candidates == 0
        assert result.whatif_calls == 1
        created = [r for r in result.recommendations
                   if r.kind is RecommendationKind.CREATE_INDEX]
        assert created, "no CREATE INDEX for the join/point column"
        assert any("nref_id" in r.columns for r in created)

    def test_a_refused_candidate_costs_only_itself(self, nref_db,
                                                  monkeypatch):
        from repro.errors import CatalogError
        advisor = IndexAdvisor(nref_db)
        define = IndexAdvisor._definition

        def picky(table, columns):
            if columns == ("source_id",):
                raise CatalogError("refused")
            return define(table, columns)

        monkeypatch.setattr(IndexAdvisor, "_definition",
                            staticmethod(picky))
        result = advisor.advise([profile(
            "select name from protein where tax_id = 3 and source_id = 2")])
        assert result.skipped_candidates == 1
        assert result.skipped_statements == 0
        assert result.whatif_calls == 1
        assert result.recommendations
