"""The storage daemon: periodic IMA polling into the workload database.

A lightweight background worker that wakes up every ``poll_interval_s``
(paper default: 30 s), reads the IMA virtual tables *over plain SQL*
through an ordinary session, and buffers the new rows in memory.  Only
every ``flush_every_polls`` polls does it append the buffered batch to
the workload database and write to disk — the paper's "disk accesses
are performed only every few minutes" design.  Each flush also applies
the seven-day retention purge.

``poll_once``/``flush`` are public so tests and benchmarks can drive
the daemon deterministically; ``start``/``stop`` run ``poll_once`` on a
:class:`~repro.core.health.PeriodicWorker` (the thread contract).

Locking is two-level.  ``self._poll_mutex`` serializes *whole polls and
flushes* — the background loop, ``stop()``'s final flush, tests and the
shell's ``\\daemon`` command must never interleave reads of the same
high-water marks (two polls sharing a snapshot would persist duplicate
rows).  It is held across the SQL round trips by design and is never
taken on engine hot paths.  ``self._lock`` stays cheap: it guards only
the in-memory bookkeeping (pending batches, high-water marks, counters)
and is never held across I/O.  The annotations are enforced by
``repro.staticcheck``'s lock-discipline rules.

The daemon is built to the paper's "never dies, never lies" contract:

* A failed poll never kills the loop — the next wake-up adds
  :data:`POLL_BACKOFF` (1 s doubling, 300 s cap) to the poll interval.
* While the workload DB is down the daemon keeps collecting into
  bounded pending batches (:data:`MAX_PENDING_ROWS` per table); overflow
  drops the oldest rows and *counts* them in ``rows_dropped``.
* Every workload row carries its source IMA sequence number
  (``src_seq``: the ring's own seq), appended in ascending order, so
  :meth:`resync` can recover the per-table high-water marks from
  persisted data — a daemon that crashed mid-flush restarts without
  duplicating or losing rows.
* Nothing fails silently: :meth:`status` counts failures (with the
  last message), backoff, pending and dropped rows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.clock import Clock
from repro.config import DaemonConfig
from repro.core.health import Backoff, PeriodicWorker, WorkerOwner, WorkerStatus
from repro.core.ima import MONITOR_TABLES, WORKLOAD
from repro.core.workload_db import WorkloadDatabase
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.overload import OverloadController
    from repro.engine.engine import EngineInstance
    from repro.engine.session import Session


# The two halves of a pending ``(seq, row)`` pair.
_SEQ, _ROW = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class PollStats:
    """Outcome of one daemon poll."""

    rows_collected: int
    flushed: bool
    rows_flushed: int
    rows_purged: int


#: Extra wait after consecutive failed polls or flushes.
POLL_BACKOFF = Backoff(1.0, 2.0, 300.0)
#: Per-table cap on rows buffered while the workload DB is down; beyond
#: it the oldest buffered rows are dropped (and counted).
MAX_PENDING_ROWS = 100_000


@dataclass(frozen=True)
class DaemonStatus(WorkerStatus):
    """Health snapshot returned by :meth:`StorageDaemon.status`; its
    ``cycles`` are polls."""

    pending_rows: int
    rows_dropped: int
    total_rows_flushed: int
    total_rows_purged: int
    last_flush_at: float | None


class StorageDaemon(WorkerOwner):
    """Polls IMA over SQL and persists the data with delayed writes."""

    def __init__(self, engine: "EngineInstance", ima_database: str,
                 workload_db: WorkloadDatabase,
                 config: DaemonConfig | None = None) -> None:
        self.engine = engine
        self.ima_database = ima_database
        self.workload_db = workload_db
        self.config = config or engine.config.daemon
        self.clock: Clock = engine.clock
        # Serializes whole polls/flushes end to end (see module doc).
        self._poll_mutex = threading.Lock()
        self._session: "Session | None" = None
        self._lock = threading.Lock()
        # Marks, pending rows and poll texts share one fixed key space:
        # per monitor table, its workload table's name (the key
        # load_high_water reports and append takes).  A mark is the
        # highest ring seq already collected.
        self._last_seq: dict[str, int] = {
            table.wl_schema.name: 0 for table in MONITOR_TABLES
        }
        # Each pending list is drained by every flush and capped at
        # MAX_PENDING_ROWS while the workload DB is down (overflow drops
        # the oldest rows into rows_dropped).
        self._pending: dict[str, list[tuple[int, tuple]]] = {
            # staticcheck: bounded(MAX_PENDING_ROWS)
            name: [] for name in self._last_seq
        }
        # Poll statements are "constant prefix + high-water seq"; the
        # constant part is formatted once per table here, not per poll
        # under _poll_mutex (PRF005).  With the seq floor as its only
        # predicate the scan takes the ring's bounded snapshot as it
        # comes.
        self._poll_query_prefix: dict[str, str] = {
            table.wl_schema.name:
                f"select * from {table.ima_schema.name} where seq > "
            for table in MONITOR_TABLES
        }
        self._polls_since_flush = 0
        self.worker = PeriodicWorker(
            "repro-storage-daemon", self.config.poll_interval_s,
            self.poll_once, POLL_BACKOFF, self.clock)
        self.total_rows_flushed = 0
        self.total_rows_purged = 0
        self.rows_dropped = 0
        self._last_flush_at: float | None = None
        # Unread loss observed by the latest poll: workload rows that
        # fell off the ring before the daemon read them (the true
        # overload signal the controller consumes).
        self._last_poll_loss = 0
        # Overload controller fed after every poll; attached once at
        # setup time, before the daemon thread starts.
        self.controller: "OverloadController | None" = None
        self.resync()

    def attach_controller(self, controller: "OverloadController") -> None:
        """Wire the degradation-ladder controller (call before start)."""
        with self._poll_mutex:
            self.controller = controller

    # -- crash recovery ------------------------------------------------------

    def resync(self) -> None:
        """Adopt high-water marks from persisted workload data.

        Called on construction (and available to tests): after a crash
        the workload DB's trailing ``src_seq`` column is the durable
        record of what was persisted, so a restarted daemon resumes
        exactly after it — no duplicated and no lost rows.
        """
        marks = self.workload_db.load_high_water()
        with self._lock:
            last_seq = self._last_seq
            for table, seq in marks.items():
                if seq > last_seq[table]:
                    last_seq[table] = seq

    # -- polling ------------------------------------------------------------

    def _ensure_session(self) -> "Session":
        if self._session is None or self._session.closed:
            # Connecting under _poll_mutex is deliberate: the mutex
            # serializes daemon polls only, never engine hot paths.
            self._session = self.engine.connect(self.ima_database)
        return self._session

    def poll_once(self) -> PollStats:
        """One wake-up: read new IMA rows; flush if the batch is due.

        Raises on failure after the worker recorded it.  Every outcome
        feeds the overload controller, so pressure tracks sick polls.
        """
        started = time.perf_counter()
        with self._poll_mutex:
            try:
                with self.worker.accounting():
                    # Holding _poll_mutex across the SQL round trips is
                    # the point: concurrent polls reading one high-water
                    # snapshot would persist duplicate rows.
                    return self._poll_locked()  # staticcheck: ignore[LCK004]
            finally:
                self._notify_controller(time.perf_counter() - started)

    def _notify_controller(self, duration_s: float) -> None:
        """Feed the latest poll's signals to the overload controller."""
        controller = self.controller
        if controller is None:
            return
        with self._lock:
            pending = sum(len(rows) for rows in self._pending.values())
            loss = self._last_poll_loss
        controller.note_poll(duration_s, pending,
                             MAX_PENDING_ROWS, loss)

    # staticcheck: hotpath
    def _poll_locked(self) -> PollStats:
        with self._lock:
            # Fixed-size snapshot (one mark per monitor table); copying it
            # *is* the poll's consistency mechanism (see poll_once).
            high_water = dict(self._last_seq)  # staticcheck: allocfree(fixed-table-key-space)
        # The SQL round trips run without the daemon's cheap lock held —
        # a poll must never block counter reads on query execution.
        batches, collected, loss = self._collect(high_water)
        with self._lock:
            last_seq = self._last_seq
            for table, seq in high_water.items():
                if seq > last_seq[table]:
                    last_seq[table] = seq
            for wl_table, rows in batches.items():
                self._admit_pending(wl_table, rows)
            self._last_poll_loss = loss
            self._polls_since_flush += 1
            flush_due = self._polls_since_flush >= self.config.flush_every_polls
        flushed = False
        rows_flushed = 0
        rows_purged = 0
        # The snapshot cannot go stale: every writer of
        # _polls_since_flush runs under _poll_mutex, which this method's
        # callers hold; _lock only orders the counter reads.
        if flush_due:
            rows_flushed, rows_purged = self._flush_locked()
            flushed = True
        return PollStats(collected, flushed,  # staticcheck: allocfree(one-stats-record-per-poll)
                         rows_flushed, rows_purged)

    def _collect(self, high_water: dict[str, int],
                 ) -> tuple[dict[str, list[tuple[int, tuple]]], int, int]:
        """Read every IMA table's rows newer than ``high_water`` into
        per-table batches of ``(seq, row-minus-seq)``, raising the marks
        in place; returns the batches, the row count and the workload
        ring's unread loss.

        IMA returns a ring's rows in ascending seq order, so a batch is
        ascending and its last seq is the table's new mark.  The unread
        loss is the gap between the previous workload mark and the
        oldest live row: that many rows were overwritten before this
        poll read them.  Only the workload table is measured — it is the
        per-statement ring that floods first, and keyed buffers have
        natural seq gaps (upserts skip seqs), so a gap there is not
        loss.  A zero mark is skipped: the first poll of a warm ring
        would otherwise count start-up history as loss.
        """
        # Reading IMA over SQL under _poll_mutex is the daemon's design
        # (see poll_once); the mutex never touches hot paths.
        session = self._ensure_session()
        query_prefix = self._poll_query_prefix
        batches: dict[str, list[tuple[int, tuple]]] = {}
        collected = 0
        loss = 0
        for table in MONITOR_TABLES:
            name = table.wl_schema.name
            mark = high_water[name]
            rows = session.execute(query_prefix[name] + str(mark)).rows
            if not rows:
                continue
            if table is WORKLOAD and mark > 0:
                loss = max(0, rows[0][0] - mark - 1)
            high_water[name] = rows[-1][0]
            batches[name] = [  # staticcheck: allocfree(row-materialization-is-the-product)
                (row[0], row[1:]) for row in rows]
            collected += len(rows)
        return batches, collected, loss

    def flush(self) -> tuple[int, int]:
        """Append buffered rows to the workload DB and purge old history.

        Returns (rows written, rows purged).  On failure the unwritten
        batches are requeued (see :meth:`_flush_locked`) and the error
        re-raised after the worker recorded it; a success counts no poll.
        """
        with self._poll_mutex, self.worker.accounting(cycle=False):
            # Held across the workload-DB writes by design; the mutex
            # serializes the daemon only (see module doc).
            return self._flush_locked()  # staticcheck: ignore[LCK004]

    # staticcheck: hotpath
    def _flush_locked(self) -> tuple[int, int]:
        # One wall read per flush, not per row: every row in the batch
        # shares the flush timestamp.
        now = self.clock.now()  # staticcheck: allocfree(one-read-per-flush-not-per-row)
        batches: dict[str, list[tuple[int, tuple]]] = {}
        with self._lock:
            # Swap, don't copy: the flush takes ownership of each
            # non-empty pending list and leaves a fresh one behind, so
            # no row is copied while _lock is held.
            pending = self._pending
            for table, rows in pending.items():
                if rows:
                    batches[table] = rows
                    pending[table] = []
            self._polls_since_flush = 0
        written = 0
        done: set[str] = set()  # staticcheck: allocfree(per-flush-accumulator)
        try:
            workload_db = self.workload_db
            for table, rows in batches.items():
                # Pending rows are in ascending src_seq order (each poll
                # appends an ascending batch above the previous mark),
                # so a failure mid-append persists a clean prefix;
                # recovery resumes after the highest persisted seq.
                written += workload_db.append(
                    table, map(_ROW, rows), now, seqs=map(_SEQ, rows))
                done.add(table)
            purged = workload_db.purge_older_than(
                now - self.config.retention_s)
            workload_db.flush()
        except (ReproError, OSError):
            self._requeue_after_failure(batches, done, written)
            raise
        with self._lock:
            self.total_rows_flushed += written
            self.total_rows_purged += purged
            self._last_flush_at = now
        return written, purged

    # staticcheck: coldpath(flush-failure-only)
    def _requeue_after_failure(self, batches: dict[str, list[tuple[int, tuple]]],
                               done: set[str], written: int) -> None:
        """Put rows the failed flush did not persist back in pending.

        The failing table may have persisted a prefix of its batch, so
        the persisted high-water marks decide what to requeue; if even
        reading them fails, requeue everything not known written (the
        next resync-based recovery still converges).
        """
        try:
            marks = self.workload_db.load_high_water()
        except (ReproError, OSError):
            marks = {}
        with self._lock:
            for table, rows in batches.items():
                if table in done:
                    self.total_rows_flushed += len(rows)
                    continue
                floor = marks.get(table, 0)
                survivors = [(seq, row) for seq, row in rows if seq > floor]
                self.total_rows_flushed += len(rows) - len(survivors)
                self._pending[table][:0] = survivors
                self._enforce_cap(table)

    def _admit_pending(self, table: str,
                       rows: list[tuple[int, tuple]]) -> None:
        self._pending[table].extend(rows)
        self._enforce_cap(table)

    def _enforce_cap(self, table: str) -> None:
        rows = self._pending[table]
        overflow = len(rows) - MAX_PENDING_ROWS
        if overflow > 0:
            # Degrade by dropping the *oldest* buffered rows — and never
            # silently: the drop is part of the health snapshot.
            del rows[:overflow]
            self.rows_dropped += overflow

    @property
    def pending_rows(self) -> int:
        with self._lock:
            return sum(len(rows) for rows in self._pending.values())

    def status(self) -> DaemonStatus:
        """Health snapshot (the shell's ``\\daemon status``)."""
        worker = asdict(self.worker.status())
        with self._lock:
            return DaemonStatus(
                **worker,
                pending_rows=sum(
                    len(rows) for rows in self._pending.values()),
                rows_dropped=self.rows_dropped,
                total_rows_flushed=self.total_rows_flushed,
                total_rows_purged=self.total_rows_purged,
                last_flush_at=self._last_flush_at,
            )

    # -- background thread (start/restart/is_alive: WorkerOwner) ------------

    def stop(self, final_flush: bool = True) -> None:
        """Stop the thread (a hung one raises); by default run one last
        poll and flush, tolerating an engine that already shut down."""
        self.worker.stop()
        try:
            if final_flush:
                self.poll_once()
                self.flush()
        except (ReproError, OSError):
            # Recorded in the worker's counters rather than raised out
            # of stop; pending rows stay requeued for a restart.
            pass
        finally:
            with self._poll_mutex:
                session, self._session = self._session, None
                if session is not None:
                    try:
                        session.close()
                    except (ReproError, OSError):
                        pass  # session/engine already torn down
