"""The persistent workload database.

A native database (with its own disk and buffer pool, like an ordinary
user database in Ingres) holding timestamped history of everything the
monitor collects.  The storage daemon appends batches here; entries are
kept for seven days by default so a typical work week can be analyzed.
Appends arrive in ``captured_at`` order, so retention deletes a prefix
of each table's pages and frees the pages it empties.

Because it is a regular database, the collected data is queryable with
standard SQL and triggers on its tables provide active alerting.

Every workload table carries a trailing ``src_seq`` column: the IMA
ring-buffer sequence number of the source row.  It is the daemon's
crash-recovery anchor — on restart
:meth:`WorkloadDatabase.load_high_water` recovers the per-table
high-water marks from persisted data, so a daemon that died mid-flush
resumes without duplicating or losing rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Iterable

from repro import faultsim
from repro.clock import Clock, SystemClock
from repro.core.ima import MONITOR_TABLES
from repro.engine.database import Database
from repro.errors import MonitorError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tuning_journal import TuningJournal


#: One workload table per monitor table (``MonitorTable.wl_schema``).
WORKLOAD_TABLES = tuple(table.wl_schema for table in MONITOR_TABLES)


class WorkloadDatabase:
    """Owns the workload database and its append/retention operations."""

    def __init__(self, clock: Clock | None = None,
                 name: str = "workloaddb") -> None:
        self.clock = clock or SystemClock()
        self.database = Database(name, self.clock)
        self._journal: "TuningJournal | None" = None
        for schema in WORKLOAD_TABLES:
            self.database.create_table(schema)

    def tuning_journal(self) -> "TuningJournal":
        """The durable change journal persisted alongside the workload
        history (the ``tuning_journal`` table; created on first use).

        Like the workload tables it survives any crash of its writer:
        a restarted :class:`~repro.core.autopilot.AutonomousTuner`
        reads its applied-set and circuit breakers from it.
        """
        if self._journal is None:
            # Imported lazily: the journal pulls in the analyzer's
            # recommendation model, which itself imports this module.
            from repro.core.tuning_journal import TuningJournal
            self._journal = TuningJournal(self.database, self.clock)
        return self._journal

    # -- appends ------------------------------------------------------------

    def append(self, table_name: str, rows: Iterable[tuple],
               captured_at: float, seqs: Iterable[int] | None = None) -> int:
        """Append snapshot ``rows`` (without their seq column) stamped
        with ``captured_at``; returns the number of rows written.

        ``seqs`` supplies each row's source IMA sequence number for the
        trailing ``src_seq`` column (0 when the caller has none).  The
        daemon passes them in ascending order and the whole batch goes
        to one :meth:`Database.insert_rows`, which stores the rows in
        order and stops at the first one it cannot store — so a crash
        mid-append persists a prefix, and recovery via
        :meth:`load_high_water` resumes exactly after the last persisted
        row.
        """
        faultsim.fire("workload_db.append", error=MonitorError,
                      clock=self.clock)
        return self.database.insert_rows(
            table_name, ((captured_at, *row, seq) for row, seq
                         in zip(rows, repeat(0) if seqs is None else seqs)))

    def load_high_water(self) -> dict[str, int]:
        """Per-table max persisted ``src_seq``: ``{workload_table:
        seq}``, 0 for a table with no row appended from a source (rows
        without one carry ``src_seq == 0``)."""
        marks: dict[str, int] = {}
        for schema in WORKLOAD_TABLES:
            high = 0
            for _rowid, row in self.database.storage_for(schema.name).scan():
                if row[-1] > high:
                    high = row[-1]
            marks[schema.name] = high
        return marks

    def flush(self) -> None:
        """Force dirty pages to the (simulated) disk."""
        self.database.pool.flush_all()

    # -- retention -------------------------------------------------------------

    def purge_older_than(self, cutoff: float) -> int:
        """Delete history captured before ``cutoff``; returns rows removed.

        Each append stamps its batch with the daemon's clock, so a
        table's expired rows are a prefix of its pages.  The purge reads
        pages from the front, deletes their expired rows and stops at
        the first page holding a row it keeps; a heap then frees the
        leading pages it emptied.  Where that order breaks (a clock
        stepped back, rows written around :meth:`append`) the purge is
        late, never early: it deletes no row captured at or after
        ``cutoff``, and an expired row stored behind a live one goes
        once the rows ahead of it expire.
        """
        faultsim.fire("workload_db.purge", error=MonitorError,
                      clock=self.clock)
        removed = 0
        for schema in WORKLOAD_TABLES:
            storage = self.database.storage_for(schema.name)
            expired: list[int] = []
            for rowids, rows in storage.pages():
                on_page = [rowid for rowid, row in zip(rowids, rows)
                           if row[0] < cutoff]
                expired += on_page
                if len(on_page) < len(rowids):
                    break
            for rowid in expired:
                self.database.delete_row(schema.name, rowid)
            if expired:
                storage.free_empty_prefix()
            removed += len(expired)
        return removed

    # -- introspection ------------------------------------------------------------

    def row_count(self, table_name: str) -> int:
        return self.database.storage_for(table_name).row_count

    def total_rows(self) -> int:
        return sum(self.row_count(s.name) for s in WORKLOAD_TABLES)

    @property
    def total_bytes(self) -> int:
        """On-disk footprint of the workload DB (the paper's ~28 MB/hour
        growth, capped by seven-day retention)."""
        return self.database.total_bytes
