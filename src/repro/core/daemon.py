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
  (``src_seq``), appended in ascending order, so :meth:`resync` can
  recover the per-table high-water marks from persisted data — a
  daemon that crashed mid-flush restarts without duplicating or losing
  rows.

With a sharded monitor (:mod:`repro.core.sharding`) each IMA table
carries rows from every shard in the merged seq encoding.  High-water
marks are therefore per-(table, shard) *vectors* — a scalar over the
merged space would be unsound, because a lagging shard's later append
encodes below the global maximum and would be skipped forever.  The
daemon polls each shard with its own ``where shard = S and seq > hw``
query (``where seq > hw`` alone when there is one shard);
``poll_workers`` > 1 fans those per-shard reads over worker threads
(each with its own session) *within* one poll — the poll as a whole
stays serialized under ``_poll_mutex``.
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
from typing import TYPE_CHECKING, Sequence

from repro import faultsim
from repro.clock import Clock
from repro.config import DaemonConfig
from repro.core.sharding import SHARD_STRIDE, shard_of_seq
from repro.core.workload_db import TABLE_SOURCES, WorkloadDatabase
from repro.errors import MonitorError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.lockwitness import LockWitness, WitnessedLock
    from repro.core.overload import OverloadController
    from repro.engine.engine import EngineInstance
    from repro.engine.session import Session


# The two halves of a pending ``(encoded_seq, row)`` pair.
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
    worker_hangs: int = 0
    """Poll workers abandoned past the heartbeat deadline (their shard
    group's round failed loudly instead of stalling the poll)."""
    worker_deaths: int = 0
    """Poll workers that died with a recorded exception — including
    exceptions outside the expected (ReproError, OSError) set, which
    previously vanished and left the group silently unpolled."""
    parked_groups: tuple[int, ...] = ()
    """Worker-group indexes currently quarantined after repeated
    failures (their shards are skipped until the cooldown expires)."""
    restarts: int = 0
    """Times :meth:`StorageDaemon.restart` superseded the poll thread."""
    last_heartbeat: float | None = None
    """Engine-clock stamp of the poll loop's latest wake-up."""


class StorageDaemon:
    """Polls IMA over SQL and persists the data with delayed writes."""

    def __init__(self, engine: "EngineInstance", ima_database: str,
                 workload_db: WorkloadDatabase,
                 config: DaemonConfig | None = None,
                 witness: "LockWitness | None" = None,
                 shard_count: int = 1) -> None:
        self.engine = engine
        self.ima_database = ima_database
        self.workload_db = workload_db
        self.config = config or engine.config.daemon
        self.clock: Clock = engine.clock
        self.shard_count = max(1, shard_count)
        # Serializes whole polls/flushes end to end (see module doc).
        # The plain Lock() assignments stay first so the static lock
        # model keeps its type evidence; a witness-enabled run re-binds
        # both locks through the recording wrapper.
        self._poll_mutex: "threading.Lock | WitnessedLock" = threading.Lock()
        self._session: "Session | None" = None  # staticcheck: shared(_poll_mutex)
        # One extra session per poll worker (created lazily, only when
        # poll_workers > 1); sessions are not thread-safe, so each
        # worker reads through its own.  A slot goes back to None when
        # its worker is abandoned as hung — the zombie may still be
        # using the session, so it is never closed or reused; the next
        # poll connects a replacement.
        self._worker_sessions: "list[Session | None]" = \
            []  # staticcheck: shared(_poll_mutex); bounded(poll_workers)
        # Per-worker heartbeat stamps.  Written lock-free: each worker
        # owns exactly its own preallocated slot, and the collector only
        # reads them after the join deadline, so slots never contend.
        self._worker_heartbeats: list[float] = \
            []  # staticcheck: shared(_poll_mutex); bounded(poll_workers)
        self._lock: "threading.Lock | WitnessedLock" = threading.Lock()
        if witness is not None:
            self._poll_mutex = witness.wrap(
                threading.Lock(),
                "repro.core.daemon.StorageDaemon._poll_mutex")
            self._lock = witness.wrap(
                threading.Lock(), "repro.core.daemon.StorageDaemon._lock")
        # Key space fixed by TABLE_SOURCES (one entry per IMA table);
        # each value is the per-shard vector of *encoded* high-water
        # seqs (see module doc for why a merged-space scalar is wrong).
        self._last_seq: dict[str, list[int]] = {
            # staticcheck: shared(_lock); bounded(TABLE_SOURCES)
            source: [0] * self.shard_count
            for source in TABLE_SOURCES.values()
        }
        # Same fixed key space; each per-table list is drained by every
        # flush and capped at max_pending_rows while the workload DB is
        # down (overflow drops the oldest rows into rows_dropped).
        self._pending: dict[str, list[tuple[int, tuple]]] = {
            # staticcheck: shared(_lock); bounded(max_pending_rows)
            table: [] for table in TABLE_SOURCES
        }
        # Poll statements are "constant prefix + high-water seq"; the
        # constant part is formatted once per (table, shard) here, not
        # per poll under _poll_mutex (PRF005).  A single shard's rows
        # are all of them: with the seq floor as its only predicate the
        # scan takes the ring's bounded snapshot as it comes.
        shard_filter = "shard = {} and " if self.shard_count > 1 else ""
        self._poll_query_prefix: dict[tuple[str, int], str] = {
            # staticcheck: bounded(TABLE_SOURCES)
            (ima_table, shard):
                f"select * from {ima_table} "
                f"where {shard_filter.format(shard)}seq > "
            for ima_table in TABLE_SOURCES.values()
            for shard in range(self.shard_count)
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
        # Worker supervision state (see _collect): per-group failure
        # streaks and park deadlines, sized to the worker count on the
        # first fan-out poll.
        self.worker_hangs = 0  # staticcheck: shared(_lock)
        self.worker_deaths = 0  # staticcheck: shared(_lock)
        self.restarts = 0  # staticcheck: shared(_lock)
        self._group_failures: list[int] = \
            []  # staticcheck: shared(_lock); bounded(poll_workers)
        self._group_parked_until: list[float] = \
            []  # staticcheck: shared(_lock); bounded(poll_workers)
        # Unread-loss observed by the latest poll: workload rows that
        # fell off a shard's ring before the daemon read them (the true
        # overload signal the controller consumes).
        self._last_poll_loss: dict[int, int] = \
            {}  # staticcheck: shared(_lock); bounded(shard_count)
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

        The marks are recovered per shard (``src_seq`` carries the
        shard in its encoding); seqs from shards beyond this daemon's
        ``shard_count`` are ignored — a monitor restarted with fewer
        shards never produces new rows there, so they cannot duplicate.
        """
        marks = self.workload_db.load_high_water_vector()
        with self._lock:
            for wl_table, per_shard in marks.items():
                vector = self._last_seq[TABLE_SOURCES[wl_table]]
                for shard, seq in per_shard.items():
                    if shard < self.shard_count and seq > vector[shard]:
                        vector[shard] = seq

    # -- polling ------------------------------------------------------------

    # staticcheck: guarded-by(_poll_mutex)
    def _ensure_session(self) -> "Session":
        if self._session is None or self._session.closed:
            # Connecting under _poll_mutex is deliberate: the mutex
            # serializes daemon polls only, never engine hot paths.
            self._session = self.engine.connect(  # staticcheck: ignore[LCK004]
                self.ima_database)
        return self._session

    # staticcheck: guarded-by(_poll_mutex)
    def _ensure_worker_sessions(self, count: int) -> "list[Session]":
        """Grow/refresh the worker session pool to ``count`` entries.

        Like :meth:`_ensure_session`, connecting under ``_poll_mutex``
        is deliberate — the mutex serializes daemon polls only.  A None
        slot marks a session abandoned to a hung worker (never closed,
        never reused); it gets a fresh replacement here.
        """
        sessions = self._worker_sessions
        connect = self.engine.connect
        for index, session in enumerate(sessions):
            if session is None or session.closed:
                sessions[index] = connect(  # staticcheck: ignore[LCK004]
                    self.ima_database)
        while len(sessions) < count:
            sessions.append(connect(  # staticcheck: ignore[LCK004]
                self.ima_database))
        return sessions[:count]  # type: ignore[return-value]  # staticcheck: allocfree(bounded-by-poll-workers)

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
            loss = dict(self._last_poll_loss)
        controller.note_poll(duration_s, pending,
                             self.config.max_pending_rows, loss,
                             self.parked_shards())

    def parked_shards(self) -> tuple[int, ...]:
        """Shards whose worker group is currently quarantined."""
        now = self.clock.now()
        with self._lock:
            groups = len(self._group_parked_until)
            return tuple(
                shard
                for index, until in enumerate(self._group_parked_until)
                if until > now
                for shard in range(index, self.shard_count, groups))

    # staticcheck: hotpath
    def _poll_locked(self) -> PollStats:
        with self._lock:
            # Fixed-size snapshot (TABLE_SOURCES x shard_count);
            # copying it *is* the poll's consistency mechanism (see
            # poll_once).
            high_water = {  # staticcheck: allocfree(fixed-table-key-space)
                table: list(vector)
                for table, vector in self._last_seq.items()
            }
        # The SQL round trips run without the daemon's cheap lock held —
        # a poll must never block counter reads on query execution.
        batches, collected, loss = self._collect(high_water)
        with self._lock:
            last_seq = self._last_seq
            for ima_table, vector in high_water.items():
                marks = last_seq[ima_table]
                for shard, seq in enumerate(vector):
                    if seq > marks[shard]:
                        marks[shard] = seq
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
    def _collect(self, high_water: dict[str, list[int]],
                 ) -> tuple[dict[str, list[tuple[int, tuple]]], int,
                            dict[int, int]]:
        """Read every shard's new IMA rows into per-table batches,
        raising the ``high_water`` marks in place; returns the batches,
        the row count, and the per-shard unread-loss observations.

        With ``poll_workers`` > 1 the shards fan out over that many
        worker threads, each reading through its own session.  The poll
        as a whole still runs under ``_poll_mutex``: workers only ever
        run *within* one poll, never across two, so the high-water
        consistency argument is unchanged.  If any worker fails the
        first error is re-raised and nothing is admitted — the marks
        don't advance, and the next poll re-reads.

        Workers are supervised: each stamps a heartbeat slot, the
        collector joins against a shared deadline
        (``worker_heartbeat_timeout_s``), and a worker that misses it
        is *abandoned* — its daemon thread left to die, its session
        slot replaced, the incident counted — so a hung worker fails
        the round loudly instead of wedging ``_poll_mutex`` forever.
        A worker that dies records its exception whatever the type
        (previously only ReproError/OSError were recorded and anything
        else left the group silently unpolled).  Groups that fail
        ``worker_park_after`` consecutive rounds are parked for
        ``worker_park_cooldown_s``: their shards are skipped (and
        reported to the overload controller, which sheds them) while
        the healthy groups keep flowing; an expired cooldown re-admits
        the group half-open — one more failure re-parks it, a success
        clears it.
        """
        workers = min(self.config.poll_workers, self.shard_count)
        loss: dict[int, int] = {}  # staticcheck: allocfree(bounded-by-shard-count)
        if workers <= 1:
            # The worker fault seams fire here too, so arming
            # daemon.poll_worker.die/hang affects a single-worker daemon
            # (the inline collector IS the worker): die fails the poll
            # through the normal failure channel, hang charges latency.
            faultsim.fire("daemon.poll_worker.die")
            faultsim.fire("daemon.poll_worker.hang", clock=self.clock)
            batches: dict[str, list[tuple[int, tuple]]] = {  # staticcheck: allocfree(fixed-table-key-space)
                wl_table: [] for wl_table in TABLE_SOURCES}
            # Reading IMA over SQL under _poll_mutex is the daemon's
            # design (see poll_once); the mutex never touches hot paths.
            collected = self._poll_shards(  # staticcheck: ignore[LCK004]
                self._ensure_session(), range(self.shard_count),  # staticcheck: ignore[LCK004]
                high_water, batches, loss)
            return batches, collected, loss
        # One wall-clock read per poll (not per statement) is the
        # supervision design, not a hot-path leak.
        now = self.clock.now()  # staticcheck: allocfree(once-per-poll)
        with self._lock:
            if len(self._group_parked_until) != workers:
                self._group_parked_until = [0.0] * workers  # staticcheck: allocfree(bounded-by-poll-workers)
                self._group_failures = [0] * workers  # staticcheck: allocfree(bounded-by-poll-workers)
            active = [index for index in range(workers)  # staticcheck: allocfree(bounded-by-poll-workers)
                      if self._group_parked_until[index] <= now]
        if not active:
            raise MonitorError(
                "every poll worker group is parked; next retry after "
                "cooldown")
        groups = [range(index, self.shard_count, workers)  # staticcheck: allocfree(bounded-by-poll-workers)
                  for index in range(workers)]
        sessions = self._ensure_worker_sessions(workers)  # staticcheck: ignore[LCK004]
        heartbeats = self._worker_heartbeats
        while len(heartbeats) < workers:
            heartbeats.append(0.0)
        outcomes: list[
            tuple[dict[str, list[tuple[int, tuple]]], dict[str, list[int]],
                  int, dict[int, int]] | Exception | None] = \
            [None] * workers  # staticcheck: allocfree(bounded-by-poll-workers)

        def poll_group(index: int) -> None:
            # Each worker reads against its own copy of the marks and
            # into its own batches; the owning thread merges after join,
            # so workers share no mutable state (heartbeat slots are
            # index-disjoint by construction).
            heartbeats[index] = self.clock.now()
            local_water = {table: list(vector)
                           for table, vector in high_water.items()}
            local_batches: dict[str, list[tuple[int, tuple]]] = {
                wl_table: [] for wl_table in TABLE_SOURCES}
            local_loss: dict[int, int] = {}
            try:
                faultsim.fire("daemon.poll_worker.die")
                faultsim.fire("daemon.poll_worker.hang", clock=self.clock)
                count = self._poll_shards(sessions[index], groups[index],
                                          local_water, local_batches,
                                          local_loss)
            except Exception as error:  # noqa: BLE001  # staticcheck: ignore[EXC002]
                # A worker death of *any* type must be recorded, not
                # vanish into a None outcome that stalls the group
                # silently; the owning thread re-raises it below.
                outcomes[index] = error
                return
            heartbeats[index] = self.clock.now()
            outcomes[index] = (local_batches, local_water, count, local_loss)

        threads = {  # staticcheck: allocfree(one-thread-per-worker-per-poll)
            index: threading.Thread(
                target=poll_group, args=(index,),
                name=f"repro-daemon-poll-{index}", daemon=True)  # staticcheck: allocfree(one-thread-per-worker-per-poll)
            for index in active
        }
        for thread in threads.values():
            thread.start()
        # The join deadline must be real elapsed time even under a
        # VirtualClock (whose sleep doesn't block), or a hung worker
        # would wedge _poll_mutex forever in virtual-time tests.
        timeout_s = self.config.worker_heartbeat_timeout_s
        deadline = time.monotonic() + timeout_s  # staticcheck: ignore[CLK001]
        hung: list[int] = []  # staticcheck: allocfree(bounded-by-poll-workers)
        for index, thread in threads.items():
            # Joining under _poll_mutex is deliberate: the workers ARE
            # this poll, and the mutex must not release until every
            # worker's reads are merged — but never past the heartbeat
            # deadline, which bounds how long a hung worker can hold
            # the poll.
            thread.join(max(0.0, deadline - time.monotonic()))  # staticcheck: ignore[LCK004,CLK001]
            if thread.is_alive():
                hung.append(index)
        for index in hung:
            # Abandon, don't wait: the thread is daemonized, its session
            # may still be in use by the zombie (so the slot is nulled,
            # never closed), and the round fails loudly below.  Building
            # the error here is once-per-hung-worker, not per-statement.
            self._worker_sessions[index] = None
            outcomes[index] = MonitorError(  # staticcheck: allocfree(once-per-hung-worker)
                f"poll worker {index} missed the "  # staticcheck: allocfree(once-per-hung-worker)
                f"{timeout_s:g}s heartbeat "
                f"deadline (last heartbeat {heartbeats[index]:g}); "
                "thread abandoned, session replaced")
        merged: dict[str, list[tuple[int, tuple]]] = {  # staticcheck: allocfree(fixed-table-key-space)
            wl_table: [] for wl_table in TABLE_SOURCES}
        collected = 0
        failure: Exception | None = None
        with self._lock:
            self.worker_hangs += len(hung)
            failures = self._group_failures
            parked_until = self._group_parked_until
            park_after = self.config.worker_park_after
            cooldown_s = self.config.worker_park_cooldown_s
            for index in active:
                outcome = outcomes[index]
                failed = outcome is None or isinstance(outcome, Exception)
                if failed:
                    if isinstance(outcome, Exception) and index not in hung:
                        self.worker_deaths += 1
                    # Streaks survive parking: a half-open retry that
                    # fails re-parks immediately, a success clears.
                    failures[index] += 1
                    if failures[index] >= park_after:
                        parked_until[index] = now + cooldown_s
                else:
                    failures[index] = 0
                    parked_until[index] = 0.0
        for index in active:
            outcome = outcomes[index]
            if isinstance(outcome, Exception):
                if failure is None:
                    failure = outcome
                continue
            if outcome is None:  # pragma: no cover - worker died unrecorded
                continue
            local_batches, local_water, count, local_loss = outcome
            collected += count
            loss.update(local_loss)
            for table, rows in local_batches.items():
                merged[table].extend(rows)
            for table, vector in local_water.items():
                marks = high_water[table]
                for shard in groups[index]:
                    if vector[shard] > marks[shard]:
                        marks[shard] = vector[shard]
        if failure is not None:
            if isinstance(failure, (ReproError, OSError)):
                raise failure
            # Arbitrary worker exceptions surface through the daemon's
            # normal failure channel instead of killing the loop.
            raise MonitorError(
                f"poll worker died: {type(failure).__name__}: "
                f"{failure}") from failure
        return merged, collected, loss

    def _poll_shards(self, session: "Session", shards: Sequence[int],
                     high_water: dict[str, list[int]],
                     batches: dict[str, list[tuple[int, tuple]]],
                     loss: dict[int, int] | None = None) -> int:
        """Collect rows newer than ``high_water`` for ``shards`` into
        ``batches``, raising the marks in place; returns rows read.

        Rows enter a batch as ``(encoded_seq, row-minus-seq/shard)`` —
        the shard column exists for the per-shard poll queries and is
        stripped here, so the persisted ``wl_*`` schemas are unchanged
        (the shard survives inside ``src_seq``).

        ``loss`` (when given) receives per-shard *unread loss* for the
        workload ring: the gap between the previous high-water mark and
        the oldest live row means that many rows were overwritten
        before this poll read them.  Only the workload table is
        measured — it is the per-statement ring that floods first, and
        keyed buffers have natural seq gaps (upserts skip seqs), so a
        gap there is not loss.  A zero mark is skipped: the first poll
        of a warm ring would otherwise count start-up history as loss.
        """
        collected = 0
        query_prefix = self._poll_query_prefix
        for wl_table, ima_table in TABLE_SOURCES.items():
            marks = high_water[ima_table]
            rows = batches[wl_table]
            append_row = rows.append
            measure_loss = loss is not None and wl_table == "wl_workload"
            for shard in shards:
                mark = marks[shard]
                result = session.execute(
                    query_prefix[ima_table, shard] + str(mark))
                result_rows = result.rows
                if measure_loss and mark > 0 and result_rows:
                    # Encoded seqs of one shard share the stride, so the
                    # local gap is the encoded gap divided by it.
                    gap = (result_rows[0][0] - mark) // SHARD_STRIDE - 1
                    if gap > 0:
                        assert loss is not None
                        loss[shard] = gap
                for row in result_rows:
                    seq = row[0]
                    if seq > marks[shard]:
                        marks[shard] = seq
                    append_row((seq, tuple(row[2:])))  # staticcheck: allocfree(row-materialization-is-the-product)
                    collected += 1
        return collected

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
        for rows in batches.values():
            # Ascending *encoded* seq: shard interleaves, but every
            # per-shard subsequence is ascending, so a crash mid-append
            # still persists a clean per-shard prefix for recovery.
            rows.sort(key=_SEQ)
        written = 0
        done: set[str] = set()  # staticcheck: allocfree(per-flush-accumulator)
        try:
            workload_db = self.workload_db
            for table, rows in batches.items():
                # Rows go out in ascending src_seq order so a failure
                # mid-append persists a clean prefix; recovery resumes
                # after the highest persisted seq.
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
        the persisted high-water marks — per shard, since the prefix is
        only a prefix *per shard* of the sorted merge — decide what to
        requeue; if even reading them fails, requeue everything not
        known written (the next resync-based recovery still converges).
        """
        try:
            marks = self.workload_db.load_high_water_vector()
        except (ReproError, OSError):
            marks = {}
        with self._lock:
            for table, rows in batches.items():
                if table in done:
                    self.total_rows_flushed += len(rows)
                    continue
                floors = marks.get(table, {})
                survivors = [(seq, row) for seq, row in rows
                             if seq > floors.get(shard_of_seq(seq), 0)]
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
        now = self.clock.now()
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
                worker_hangs=self.worker_hangs,
                worker_deaths=self.worker_deaths,
                parked_groups=tuple(
                    index for index, until
                    in enumerate(self._group_parked_until) if until > now),
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
            for session in (self._session, *self._worker_sessions):
                if session is None:
                    continue
                try:
                    session.close()
                except (ReproError, OSError):
                    pass  # session/engine already torn down
            self._session = None
            self._worker_sessions.clear()

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
