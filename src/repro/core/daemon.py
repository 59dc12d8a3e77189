"""The storage daemon: periodic IMA polling into the workload database.

A lightweight background worker that wakes up every ``poll_interval_s``
(paper default: 30 s), reads the IMA virtual tables *over plain SQL*
through an ordinary session, and buffers the new rows in memory.  Only
every ``flush_every_polls`` polls does it append the buffered batch to
the workload database and write to disk — the paper's "disk accesses
are performed only every few minutes" design.  Each flush also applies
the seven-day retention purge.

``poll_once``/``flush`` are public so tests and benchmarks can drive
the daemon deterministically; ``start``/``stop`` run it as a thread.

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

* A failed poll never kills the loop — the next wake-up retries with
  exponential backoff (``backoff_initial_s`` · ``backoff_factor``^k,
  capped at ``backoff_max_s``) added to the poll interval.
* While the workload DB is down the daemon keeps collecting into
  bounded pending batches (``max_pending_rows`` per table); overflow
  drops the oldest rows and *counts* them in ``rows_dropped``.
* Every workload row carries its source IMA sequence number
  (``src_seq``: the ring's own seq), appended in ascending order, so
  :meth:`resync` can recover the per-table high-water marks from
  persisted data — a daemon that crashed mid-flush restarts without
  duplicating or losing rows.
* Nothing fails silently: failures are counted in ``poll_failures``
  with the message in ``last_poll_error``, and :meth:`status` exposes
  the full health snapshot (consecutive failures, backoff, pending,
  dropped).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.clock import Clock
from repro.config import DaemonConfig
from repro.core.workload_db import TABLE_SOURCES, WorkloadDatabase
from repro.errors import MonitorError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lockwitness import LockWitness, WitnessedLock
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


@dataclass(frozen=True)
class DaemonStatus:
    """Health snapshot returned by :meth:`StorageDaemon.status`."""

    running: bool
    total_polls: int
    poll_failures: int
    consecutive_failures: int
    backoff_s: float
    """Extra delay added to the next wake-up (0 when healthy)."""
    last_error: str | None
    pending_rows: int
    rows_dropped: int
    total_rows_flushed: int
    total_rows_purged: int
    last_flush_at: float | None
    restarts: int = 0
    """Times :meth:`StorageDaemon.restart` superseded the poll thread."""
    last_heartbeat: float | None = None
    """Engine-clock stamp of the poll loop's latest wake-up."""


class StorageDaemon:
    """Polls IMA over SQL and persists the data with delayed writes."""

    def __init__(self, engine: "EngineInstance", ima_database: str,
                 workload_db: WorkloadDatabase,
                 config: DaemonConfig | None = None,
                 witness: "LockWitness | None" = None) -> None:
        self.engine = engine
        self.ima_database = ima_database
        self.workload_db = workload_db
        self.config = config or engine.config.daemon
        self.clock: Clock = engine.clock
        # Serializes whole polls/flushes end to end (see module doc).
        # The plain Lock() assignments stay first so the static lock
        # model keeps its type evidence; a witness-enabled run re-binds
        # both locks through the recording wrapper.
        self._poll_mutex: "threading.Lock | WitnessedLock" = threading.Lock()
        self._session: "Session | None" = None  # staticcheck: shared(_poll_mutex)
        self._lock: "threading.Lock | WitnessedLock" = threading.Lock()
        if witness is not None:
            self._poll_mutex = witness.wrap(
                threading.Lock(),
                "repro.core.daemon.StorageDaemon._poll_mutex")
            self._lock = witness.wrap(
                threading.Lock(), "repro.core.daemon.StorageDaemon._lock")
        # Key space fixed by TABLE_SOURCES (one entry per IMA table);
        # each value is the highest ring seq already collected.
        self._last_seq: dict[str, int] = {
            # staticcheck: shared(_lock); bounded(TABLE_SOURCES)
            source: 0 for source in TABLE_SOURCES.values()
        }
        # Same fixed key space; each per-table list is drained by every
        # flush and capped at max_pending_rows while the workload DB is
        # down (overflow drops the oldest rows into rows_dropped).
        self._pending: dict[str, list[tuple[int, tuple]]] = {
            # staticcheck: shared(_lock); bounded(max_pending_rows)
            table: [] for table in TABLE_SOURCES
        }
        # Poll statements are "constant prefix + high-water seq"; the
        # constant part is formatted once per table here, not per poll
        # under _poll_mutex (PRF005).  With the seq floor as its only
        # predicate the scan takes the ring's bounded snapshot as it
        # comes.
        self._poll_query_prefix: dict[str, str] = {
            # staticcheck: bounded(TABLE_SOURCES)
            ima_table: f"select * from {ima_table} where seq > "
            for ima_table in TABLE_SOURCES.values()
        }
        self._polls_since_flush = 0  # staticcheck: shared(_lock)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self.total_polls = 0  # staticcheck: shared(_lock)
        self.total_rows_flushed = 0  # staticcheck: shared(_lock)
        self.total_rows_purged = 0  # staticcheck: shared(_lock)
        self.poll_failures = 0  # staticcheck: shared(_lock)
        self.last_poll_error: str | None = None  # staticcheck: shared(_lock)
        self.rows_dropped = 0  # staticcheck: shared(_lock)
        self._consecutive_failures = 0  # staticcheck: shared(_lock)
        self._backoff_s = 0.0  # staticcheck: shared(_lock)
        self._last_flush_at: float | None = None  # staticcheck: shared(_lock)
        self.restarts = 0  # staticcheck: shared(_lock)
        # Unread loss observed by the latest poll: workload rows that
        # fell off the ring before the daemon read them (the true
        # overload signal the controller consumes).
        self._last_poll_loss = 0  # staticcheck: shared(_lock)
        self._generation = 0  # staticcheck: shared(_lock)
        self._last_heartbeat: float | None = None  # staticcheck: shared(_lock)
        # Overload controller fed after every poll; attached once at
        # setup time, before the daemon thread starts.
        self.controller: "OverloadController | None" = \
            None  # staticcheck: shared(_poll_mutex)
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
            for wl_table, seq in marks.items():
                source = TABLE_SOURCES[wl_table]
                if seq > last_seq[source]:
                    last_seq[source] = seq

    # -- polling ------------------------------------------------------------

    # staticcheck: guarded-by(_poll_mutex)
    def _ensure_session(self) -> "Session":
        if self._session is None or self._session.closed:
            # Connecting under _poll_mutex is deliberate: the mutex
            # serializes daemon polls only, never engine hot paths.
            self._session = self.engine.connect(  # staticcheck: ignore[LCK004]
                self.ima_database)
        return self._session

    def poll_once(self) -> PollStats:
        """One wake-up: read new IMA rows; flush if the batch is due.

        Raises on failure (after recording it) so foreground callers
        see the error; the background loop catches and retries with
        backoff.  Every outcome — success or failure — feeds the
        overload controller, so pressure tracks sick polls too.
        """
        started = time.perf_counter()
        with self._poll_mutex:
            try:
                # Holding _poll_mutex across the SQL round trips is the
                # point: concurrent polls reading one high-water
                # snapshot would persist duplicate rows.
                stats = self._poll_locked()  # staticcheck: ignore[LCK004]
            except (ReproError, OSError) as error:
                self._record_failure(error)
                self._notify_controller(time.perf_counter() - started)
                raise
            self._record_success()
            self._notify_controller(time.perf_counter() - started)
            return stats

    # staticcheck: guarded-by(_poll_mutex)
    def _notify_controller(self, duration_s: float) -> None:
        """Feed the latest poll's signals to the overload controller."""
        controller = self.controller
        if controller is None:
            return
        with self._lock:
            pending = sum(len(rows) for rows in self._pending.values())
            loss = self._last_poll_loss
        controller.note_poll(duration_s, pending,
                             self.config.max_pending_rows, loss)

    # staticcheck: hotpath
    def _poll_locked(self) -> PollStats:
        with self._lock:
            # Fixed-size snapshot (one mark per IMA table); copying it
            # *is* the poll's consistency mechanism (see poll_once).
            high_water = dict(self._last_seq)  # staticcheck: allocfree(fixed-table-key-space)
        # The SQL round trips run without the daemon's cheap lock held —
        # a poll must never block counter reads on query execution.
        batches, collected, loss = self._collect(high_water)
        with self._lock:
            last_seq = self._last_seq
            for ima_table, seq in high_water.items():
                if seq > last_seq[ima_table]:
                    last_seq[ima_table] = seq
            for wl_table, rows in batches.items():
                self._admit_pending(wl_table, rows)
            self._last_poll_loss = loss
            self.total_polls += 1
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

    # staticcheck: guarded-by(_poll_mutex)
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
        session = self._ensure_session()  # staticcheck: ignore[LCK004]
        query_prefix = self._poll_query_prefix
        batches: dict[str, list[tuple[int, tuple]]] = {}  # staticcheck: allocfree(fixed-table-key-space)
        collected = 0
        loss = 0
        for wl_table, ima_table in TABLE_SOURCES.items():
            mark = high_water[ima_table]
            rows = session.execute(  # staticcheck: ignore[LCK004]
                query_prefix[ima_table] + str(mark)).rows
            if not rows:
                continue
            if wl_table == "wl_workload" and mark > 0:
                loss = max(0, rows[0][0] - mark - 1)
            high_water[ima_table] = rows[-1][0]
            batches[wl_table] = [  # staticcheck: allocfree(row-materialization-is-the-product)
                (row[0], row[1:]) for row in rows]
            collected += len(rows)
        return batches, collected, loss

    def flush(self) -> tuple[int, int]:
        """Append buffered rows to the workload DB and purge old history.

        Returns (rows written, rows purged).  On failure the unwritten
        batches are requeued (see :meth:`_flush_locked`) and the error
        re-raised after being recorded.
        """
        with self._poll_mutex:
            try:
                # Held across the workload-DB writes by design; the
                # mutex serializes the daemon only (see module doc).
                result = self._flush_locked()  # staticcheck: ignore[LCK004]
            except (ReproError, OSError) as error:
                self._record_failure(error)
                raise
            self._record_success()
            return result

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

    # staticcheck: guarded-by(_lock)
    def _admit_pending(self, table: str,
                       rows: list[tuple[int, tuple]]) -> None:
        self._pending[table].extend(rows)
        self._enforce_cap(table)

    # staticcheck: guarded-by(_lock)
    def _enforce_cap(self, table: str) -> None:
        rows = self._pending[table]
        overflow = len(rows) - self.config.max_pending_rows
        if overflow > 0:
            # Degrade by dropping the *oldest* buffered rows — and never
            # silently: the drop is part of the health snapshot.
            del rows[:overflow]
            self.rows_dropped += overflow

    @property
    def pending_rows(self) -> int:
        with self._lock:
            return sum(len(rows) for rows in self._pending.values())

    # -- failure accounting --------------------------------------------------

    def _record_failure(self, error: Exception) -> None:
        with self._lock:
            self.poll_failures += 1
            self._consecutive_failures += 1
            self.last_poll_error = f"{type(error).__name__}: {error}"
            self._backoff_s = min(
                self.config.backoff_max_s,
                self.config.backoff_initial_s
                * self.config.backoff_factor
                ** (self._consecutive_failures - 1))

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._backoff_s = 0.0

    def status(self) -> DaemonStatus:
        """Health snapshot (the shell's ``\\daemon status``)."""
        with self._lock:
            return DaemonStatus(
                running=self._thread is not None and self._thread.is_alive(),
                total_polls=self.total_polls,
                poll_failures=self.poll_failures,
                consecutive_failures=self._consecutive_failures,
                backoff_s=self._backoff_s,
                last_error=self.last_poll_error,
                pending_rows=sum(
                    len(rows) for rows in self._pending.values()),
                rows_dropped=self.rows_dropped,
                total_rows_flushed=self.total_rows_flushed,
                total_rows_purged=self.total_rows_purged,
                last_flush_at=self._last_flush_at,
                restarts=self.restarts,
                last_heartbeat=self._last_heartbeat,
            )

    # -- background thread -------------------------------------------------------

    def start(self) -> None:
        """Run the poll loop in a background thread.

        Refuses while a previous thread is still alive — including one
        whose ``stop()`` timed out — so two daemons can never poll the
        same high-water marks concurrently (``restart()`` is the
        supervised path that may supersede a live thread: it bumps the
        generation so the old thread exits on its next wake-up, and
        ``_poll_mutex`` keeps polls serialized meanwhile).
        """
        if self._thread is not None and self._thread.is_alive():
            raise MonitorError("storage daemon is already running")
        self._stop.clear()
        with self._lock:
            generation = self._generation
        self._thread = threading.Thread(
            target=self._run, args=(generation,),
            name="repro-storage-daemon", daemon=True)
        self._thread.start()

    def restart(self) -> None:
        """Supervisor entry point: supersede the poll thread.

        Safe against a hung or dead thread: the generation bump makes
        any zombie exit at its next wake-up, the fresh stop event means
        the replacement does not inherit a set flag, and correctness
        never depended on thread identity — ``_poll_mutex`` serializes
        whole polls, so even a zombie that wakes mid-replacement cannot
        interleave with the new thread's polls.
        """
        with self._lock:
            self._generation += 1
            self.restarts += 1
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.config.stop_join_timeout_s)
            # Alive or not, the handle is dropped: a wedged thread is
            # superseded (it exits via the generation check when it
            # unwedges) rather than blocking recovery forever.
            self._thread = None
        self._stop = threading.Event()
        self.start()

    def last_heartbeat(self) -> float | None:
        """Engine-clock stamp of the poll loop's latest wake-up."""
        with self._lock:
            return self._last_heartbeat

    def is_alive(self) -> bool:
        """Whether the poll thread is currently running."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stop(self, final_flush: bool = True) -> None:
        """Stop the thread; by default run one last poll and flush.

        Tolerates an engine that has already shut down (the final-flush
        failure is recorded in the counters, not raised), but never
        hides a hung poll thread: if ``join`` times out the handle is
        *kept* — so ``start()`` keeps refusing — and MonitorError is
        raised.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.config.stop_join_timeout_s)
            if thread.is_alive():
                raise MonitorError(
                    "storage daemon thread did not stop within "
                    f"{self.config.stop_join_timeout_s:g}s; thread handle "
                    "kept, restart refused while it lives")
            self._thread = None
        try:
            if final_flush:
                self.poll_once()
                self.flush()
        except (ReproError, OSError):
            # Engine may already be shut down; the failure is recorded
            # in poll_failures/last_poll_error rather than raised out
            # of stop, and pending rows stay requeued for a restart.
            pass
        finally:
            self._close_session()

    def _close_session(self) -> None:
        with self._poll_mutex:
            session, self._session = self._session, None
            if session is None:
                return
            try:
                session.close()
            except (ReproError, OSError):
                pass  # session/engine already torn down

    def _run(self, generation: int) -> None:
        while True:
            with self._lock:
                if self._generation != generation:
                    break  # superseded by restart(); a zombie exits here
                backoff = self._backoff_s
                self._last_heartbeat = self.clock.now()
            if self._stop.wait(self.config.poll_interval_s + backoff):
                break
            try:
                self.poll_once()
            except (ReproError, OSError):
                # Recorded by poll_once; the next wake-up retries with
                # exponential backoff added to the interval.
                pass
