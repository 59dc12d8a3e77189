"""Aggregated view over the recorded workload.

The analyzer does not consume raw workload-DB rows directly; this
module folds the history into per-statement aggregates (executions,
average actual/estimated costs, referenced objects) that the rules and
the index advisor operate on.  There is one fold, a handler per
``wl_*`` table: :func:`fold` feeds it the persisted rows (the normal
path: analyze what the daemon persisted), :func:`view_from_monitor`
the live monitor's records (ad-hoc analysis of the in-memory window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable

from repro.core import ima
from repro.core.monitor import IntegratedMonitor
from repro.core.workload_db import WorkloadDatabase
from repro.errors import AnalyzerError
from repro.optimizer.plans import parse_misses

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.database import Database


@dataclass
class StatementProfile:
    """Everything recorded about one distinct statement."""

    text_hash: int
    text: str
    executions: int = 0
    frequency: int = 0
    total_actual_io: float = 0.0
    total_actual_cpu: float = 0.0
    total_estimated_io: float = 0.0
    total_estimated_cpu: float = 0.0
    total_wallclock_s: float = 0.0
    total_monitor_s: float = 0.0
    referenced_tables: set[str] = field(default_factory=set)
    referenced_attributes: set[tuple[str, str]] = field(default_factory=set)

    @property
    def avg_actual_cost(self) -> float:
        if self.executions == 0:
            return 0.0
        return (self.total_actual_io + self.total_actual_cpu) / self.executions

    @property
    def avg_estimated_cost(self) -> float:
        if self.executions == 0:
            return 0.0
        return (self.total_estimated_io
                + self.total_estimated_cpu) / self.executions

    @property
    def total_actual_cost(self) -> float:
        return self.total_actual_io + self.total_actual_cpu

    @property
    def cost_divergence(self) -> float:
        """max(actual/estimated, estimated/actual); 1.0 means perfect."""
        actual = self.avg_actual_cost
        estimated = self.avg_estimated_cost
        if actual <= 0 or estimated <= 0:
            return 1.0
        return max(actual / estimated, estimated / actual)


@dataclass
class TableProfile:
    """Physical snapshot of one referenced table at capture time."""

    table_name: str
    frequency: int = 0
    structure: str = ""
    data_pages: int = 0
    overflow_pages: int = 0
    row_count: int = 0
    has_statistics: bool = False

    @property
    def overflow_ratio(self) -> float:
        if self.data_pages <= 0:
            return 0.0
        return self.overflow_pages / self.data_pages


@dataclass
class WorkloadView:
    """Aggregated workload: statements + table/attribute facts."""

    statements: dict[int, StatementProfile] = field(default_factory=dict)
    tables: dict[str, TableProfile] = field(default_factory=dict)
    attributes_without_histograms: set[tuple[str, str]] = \
        field(default_factory=set)
    plans: dict[int, str] = field(default_factory=dict)
    """Captured plan text per statement hash (expensive statements)."""
    statistics: list[tuple] = field(default_factory=list)
    """System-statistics samples as recorded: ``(ts, *STATISTIC_FIELDS)``."""

    def misses(self) -> dict[int, tuple[str, ...]]:
        """Per statement whose captured plan counted its nodes' rows, the
        columns of the row estimates that missed
        (:func:`~repro.optimizer.plans.parse_misses`)."""
        parsed = {text_hash: parse_misses(text)
                  for text_hash, text in self.plans.items()}
        return {text_hash: columns for text_hash, columns in parsed.items()
                if columns is not None}

    def top_statements(self, count: int = 10) -> list[StatementProfile]:
        """The statements with the highest total actual cost."""
        ranked = sorted(self.statements.values(),
                        key=attrgetter("total_actual_cost"), reverse=True)
        return ranked[:count]


@dataclass
class _Fold:
    """One pass of rows (``wl_*`` layout: ``captured_at`` first) into a
    new view, for the length of one scan.  Statements and executions
    are fed before references: they create the profile a reference row
    attaches to."""

    view: WorkloadView = field(default_factory=WorkloadView)
    newest: dict[tuple[str, Any], float] = field(default_factory=dict)
    """``captured_at`` of the row kept, per newest-wins table and key."""

    def _takes_over(self, table: str, key: Any, captured_at: float) -> bool:
        """Whether this row is at least as new as the one kept for
        ``key``; if so it is the one kept from now on."""
        if captured_at < self.newest.get((table, key), captured_at):
            return False
        self.newest[table, key] = captured_at
        return True

    def _profile(self, text_hash: int) -> StatementProfile:
        profile = self.view.statements.get(text_hash)
        if profile is None:
            profile = self.view.statements[text_hash] = StatementProfile(
                text_hash=text_hash, text="")
        return profile

    def statement(self, row: tuple) -> None:
        captured_at, text_hash, text, frequency = row[:4]
        if self._takes_over("wl_statements", text_hash, captured_at):
            profile = self._profile(text_hash)
            profile.text = text
            profile.frequency = frequency

    def execution(self, row: tuple) -> None:
        (_captured, text_hash, _session, _ts, _opt, _exec, wallclock,
         est_io, est_cpu, act_io, act_cpu, _lr, _pr, _tp, _rr,
         _used_indexes, monitor_s) = row[:17]
        profile = self.view.statements.get(text_hash) \
            or self._profile(text_hash)
        profile.executions += 1
        profile.total_actual_io += act_io
        profile.total_actual_cpu += act_cpu
        profile.total_estimated_io += est_io
        profile.total_estimated_cpu += est_cpu
        profile.total_wallclock_s += wallclock
        profile.total_monitor_s += monitor_s

    def reference(self, row: tuple) -> None:
        _captured, text_hash, object_type, object_name = row[:4]
        profile = self.view.statements.get(text_hash)
        if profile is None:
            return
        if object_type == "table":
            profile.referenced_tables.add(object_name)
        elif object_type == "attribute":
            table, _, column = object_name.partition(".")
            profile.referenced_attributes.add((table, column))

    def table(self, row: tuple) -> None:
        (captured_at, table_name, frequency, structure, data_pages,
         overflow_pages, row_count, has_statistics) = row[:8]
        if self._takes_over("wl_tables", table_name, captured_at):
            self.view.tables[table_name] = TableProfile(
                table_name, frequency, structure, data_pages,
                overflow_pages, row_count, bool(has_statistics))

    def attribute(self, row: tuple) -> None:
        captured_at, table_name, attribute, _frequency, has_histogram = row[:5]
        key = (table_name, attribute)
        if self._takes_over("wl_attributes", key, captured_at):
            if has_histogram:
                self.view.attributes_without_histograms.discard(key)
            else:
                self.view.attributes_without_histograms.add(key)

    def plan(self, row: tuple) -> None:
        captured_at, text_hash, _estimated_cost, plan_text = row[:4]
        if self._takes_over("wl_plans", text_hash, captured_at):
            self.view.plans[text_hash] = plan_text

    def sample(self, row: tuple) -> None:
        # Without the capture stamp in front and the source seq behind.
        self.view.statistics.append(row[1:-1])


_SAMPLE_COLUMNS = ("ts",) + ima.STATISTIC_FIELDS
_SAMPLE_OF = {
    len(schema.columns): itemgetter(*map(schema.column_index, _SAMPLE_COLUMNS))
    for schema in (ima.STATISTICS.ima_schema, ima.STATISTICS.wl_schema)
}


def statistics_sample(row: tuple) -> tuple:
    """``(ts, *STATISTIC_FIELDS)`` of a statistics row, fields found by
    column name.  Accepts a sample (an element of
    :attr:`WorkloadView.statistics`), an ``ima_statistics`` row, which
    leads with its ``seq``, and a ``wl_statistics`` row, which leads
    with ``captured_at`` and ends with ``src_seq``; the three differ in
    length."""
    if len(row) == len(_SAMPLE_COLUMNS):
        return tuple(row)
    sample_of = _SAMPLE_OF.get(len(row))
    if sample_of is None:
        raise AnalyzerError(
            f"not a statistics row: {len(row)} fields, expected "
            f"{len(_SAMPLE_COLUMNS)} or one of {sorted(_SAMPLE_OF)}")
    return sample_of(row)


# How a row of each folded table folds, in the order a fold reads them.
_FOLDS: tuple[tuple[ima.MonitorTable, Callable[[_Fold, tuple], None]], ...] = (
    (ima.STATEMENTS, _Fold.statement),
    (ima.WORKLOAD, _Fold.execution),
    (ima.REFERENCES, _Fold.reference),
    (ima.TABLES, _Fold.table),
    (ima.ATTRIBUTES, _Fold.attribute),
    (ima.PLANS, _Fold.plan),
    (ima.STATISTICS, _Fold.sample),
)


def fold(workload_db: WorkloadDatabase) -> tuple[WorkloadView, int]:
    """The view of the persisted history, and the number of rows read
    to build it (every row of every ``wl_*`` table)."""
    state = _Fold()
    rows = 0
    for table, apply in _FOLDS:
        storage = workload_db.database.storage_for(table.wl_schema.name)
        for _rowid, row in storage.scan():
            apply(state, row)
            rows += 1
    return state.view, rows


def view_from_workload_db(workload_db: WorkloadDatabase) -> WorkloadView:
    """Fold the persisted history into a :class:`WorkloadView`."""
    return fold(workload_db)[0]


def view_from_monitor(monitor: IntegratedMonitor,
                      database: "Database | None" = None) -> WorkloadView:
    """Build the view straight from the in-memory monitor window;
    ``database`` supplies the live table and histogram facts the
    monitor's table/attribute records do not carry.  Each record folds
    as the ``wl_*`` row it would persist as, stamped 0.0 and without a
    source seq (0)."""
    state = _Fold()
    for table, apply in _FOLDS:
        for record in getattr(monitor, table.name).values():
            apply(state, (0.0, *table.facts(record, database), 0))
    return state.view
