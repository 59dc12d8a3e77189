"""The analyzer's fold reads each ``wl_*`` row's columns by name."""

from repro.core import ima
from repro.core.analyzer.workload_view import _FOLDS, _Fold


def _row(table, **values):
    """A ``wl_*`` row of ``table`` in schema order; unnamed columns 0."""
    return tuple(values.get(name, 0) for name in table.wl_schema.column_names)


def test_every_handler_reads_its_columns_by_name():
    rows = {
        ima.STATEMENTS: _row(ima.STATEMENTS, captured_at=1.0, text_hash=7,
                             query_text="select 1", frequency=3),
        ima.WORKLOAD: _row(ima.WORKLOAD, text_hash=7, wallclock_s=0.5,
                           estimated_io=1.0, estimated_cpu=2.0,
                           actual_io=3.0, actual_cpu=4.0,
                           monitor_time_s=0.25),
        ima.REFERENCES: _row(ima.REFERENCES, text_hash=7,
                             object_type="attribute", object_name="t.a"),
        ima.TABLES: _row(ima.TABLES, captured_at=1.0, table_name="t",
                         frequency=2, structure="btree", data_pages=10,
                         overflow_pages=5, row_count=100,
                         has_statistics=1),
        ima.ATTRIBUTES: _row(ima.ATTRIBUTES, captured_at=1.0,
                             table_name="t", attribute_name="a",
                             has_histogram=0),
        ima.PLANS: _row(ima.PLANS, captured_at=1.0, text_hash=7,
                        plan_text="scan t"),
    }
    state = _Fold()
    for table, apply in _FOLDS:
        if table in rows:
            apply(state, rows[table])
    view = state.view
    profile = view.statements[7]
    assert (profile.text, profile.frequency, profile.executions) == (
        "select 1", 3, 1)
    assert (profile.total_wallclock_s, profile.total_estimated_io,
            profile.total_estimated_cpu, profile.total_actual_io,
            profile.total_actual_cpu, profile.total_monitor_s) == (
        0.5, 1.0, 2.0, 3.0, 4.0, 0.25)
    assert profile.referenced_attributes == {("t", "a")}
    table = view.tables["t"]
    assert (table.frequency, table.structure, table.data_pages,
            table.overflow_pages, table.row_count, table.has_statistics) == (
        2, "btree", 10, 5, 100, True)
    assert view.attributes_without_histograms == {("t", "a")}
    assert view.plans == {7: "scan t"}
