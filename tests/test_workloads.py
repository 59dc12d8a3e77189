"""Tests for the NREF generator, query sets and workload runner."""

import pytest

from repro.engine.database import Database
from repro.errors import ReproError
from repro.sql.parser import parse_statement
from repro.workloads import (
    NREF_TABLE_NAMES,
    NrefScale,
    WorkloadRunner,
    complex_query_set,
    load_nref,
    point_query_statements,
    reference_indexes,
    simple_join_statements,
)
from repro.workloads.nref import generate_rows, nref_id


class TestGenerator:
    def test_deterministic(self):
        scale = NrefScale(proteins=50)
        first = {t: list(rows) for t, rows in generate_rows(scale).items()}
        second = {t: list(rows) for t, rows in generate_rows(scale).items()}
        assert first == second

    def test_different_seed_differs(self):
        base = list(generate_rows(NrefScale(proteins=50))["protein"])
        other = list(generate_rows(
            NrefScale(proteins=50, seed=999))["protein"])
        assert base != other

    def test_six_tables(self):
        rows = generate_rows(NrefScale(proteins=10))
        assert set(rows) == set(NREF_TABLE_NAMES)
        assert len(NREF_TABLE_NAMES) == 6

    def test_row_counts_scale(self):
        scale = NrefScale(proteins=100)
        rows = generate_rows(scale)
        assert len(list(rows["protein"])) == 100
        assert len(list(rows["sequence"])) == 100
        assert len(list(rows["taxonomy"])) == scale.taxa
        assert len(list(rows["source"])) == scale.sources

    def test_tax_distribution_is_skewed(self):
        rows = list(generate_rows(NrefScale(proteins=500))["protein"])
        taxes = [row[4] for row in rows]
        assert taxes.count(1) > len(taxes) / 10  # zipf head

    def test_referential_integrity(self):
        scale = NrefScale(proteins=80)
        rows = generate_rows(scale)
        proteins = {row[0] for row in rows["protein"]}
        for seq in rows["sequence"]:
            assert seq[0] in proteins
        for organism in rows["organism"]:
            assert organism[0] in proteins
        for neighbor in rows["neighboring_seq"]:
            assert neighbor[0] in proteins
            assert neighbor[1] in proteins

    def test_load_nref(self):
        database = Database("nref")
        counts = load_nref(database, NrefScale(proteins=50))
        assert counts["protein"] == 50
        assert database.storage_for("protein").row_count == 50
        for table in NREF_TABLE_NAMES:
            assert database.catalog.has_table(table)

    def test_nref_id_format(self):
        assert nref_id(7) == "NF00000007"
        assert len(nref_id(99_999_999)) == 10


class TestReferenceIndexes:
    def test_exactly_33(self):
        indexes = reference_indexes()
        assert len(indexes) == 33  # the paper's manual reference set

    def test_unique_names_and_valid_tables(self):
        indexes = reference_indexes()
        names = [i.name for i in indexes]
        assert len(set(names)) == 33
        assert {i.table_name for i in indexes} <= set(NREF_TABLE_NAMES)

    def test_all_creatable(self):
        database = Database("nref")
        load_nref(database, NrefScale(proteins=30))
        for index in reference_indexes():
            database.create_index(index)
        assert len(database.catalog.all_indexes()) == 33


class TestQuerySets:
    def test_complex_set_size_and_parseability(self):
        queries = complex_query_set(NrefScale(proteins=100), count=50)
        assert len(queries) == 50
        for query in queries:
            parse_statement(query)  # must all be valid SQL

    def test_complex_set_deterministic(self):
        assert complex_query_set(count=10) == complex_query_set(count=10)

    def test_simple_joins_all_distinct(self):
        # no data is loaded here: only statement texts are generated
        statements = simple_join_statements(200, NrefScale(proteins=100_000))
        assert len(statements) == 200
        assert len(set(statements)) > 195  # overwhelmingly distinct texts

    def test_point_queries_rotate_small_id_set(self):
        statements = point_query_statements(1000, NrefScale(proteins=100),
                                            distinct_ids=10)
        assert len(statements) == 1000
        assert len(set(statements)) <= 10

    def test_query_sets_parse(self):
        for statement in simple_join_statements(5) \
                + point_query_statements(5):
            parse_statement(statement)


class TestRunner:
    def test_runs_and_times(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        report = runner.run(point_query_statements(
            20, NrefScale(proteins=300)))
        assert report.statements == 20
        assert report.errors == 0
        assert report.total_wallclock_s > 0
        assert len(report.per_statement_s) == 20
        assert report.statements_per_second > 0
        assert report.average_statement_s > 0

    def test_error_counting_mode(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        report = runner.run(["select * from missing", "select 1"],
                            on_error="count")
        assert report.errors == 1
        assert report.statements == 2

    def test_error_raise_mode(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        with pytest.raises(ReproError):
            runner.run(["select * from missing"])

    def test_progress_callback(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        seen = []
        runner.run(["select 1", "select 2"],
                   progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_complex_queries_run_on_nref(self, fresh_nref_setup):
        session = fresh_nref_setup.engine.connect("nref")
        runner = WorkloadRunner(session)
        queries = complex_query_set(NrefScale(proteins=300), count=12)
        report = runner.run(queries)
        assert report.errors == 0
        assert report.rows_returned > 0
