"""Durable change journal for the autonomous tuner.

The paper's outlook (section VI) is autonomous implementation of
changes without the DBA — which only works if the implementation end of
the loop is as crash-safe as the storage daemon.  The journal is the
tuner's equivalent of the daemon's ``src_seq`` high-water marks: a
persistent, append-only record of every physical-design change the
tuner *intends* to make, kept in the workload database itself (the
``tuning_journal`` table) so it is queryable with ordinary SQL and
survives any tuner crash.

Every change moves through a tiny state machine::

    intent --> applied          (the DDL ran and succeeded)
           --> failed           (the DDL ran and the engine rejected it)
           --> rolled-back      (the change was reverted, or never ran)

Each transition is a new journal *row* (append-only — never updated in
place), so a crash between any two writes leaves a prefix that replays
deterministically.  The undo statement is captured **at intent time**
(:func:`repro.core.analyzer.recommendations.undo_sql`), because after a
crash the pre-change structure can no longer be read from the schema.

Recovery contract (enforced by :meth:`AutonomousTuner.recover`): an
entry still in ``intent`` state marks an interrupted change.  The
recovering tuner probes the schema — if the change is present it is
rolled back with the journaled undo SQL (an interrupted cycle must
never stay half-applied), if absent it is marked rolled-back directly,
and idempotent changes (statistics collection) are completed forward.
Replaying recovery is idempotent: a second pass finds no ``intent``
entries and writes nothing.

All journal writes pass through the ``journal.write`` failure point
(:mod:`repro.faultsim`); a journal outage fails *closed* — the tuner
refuses to apply a change it cannot journal first.

Locking mirrors the storage daemon's two-level design: ``_write_mutex``
serializes whole journal writes end to end (held across the disk I/O
by design; it is never taken on engine hot paths), while ``_lock``
guards only the in-memory mirror and counters and is never held across
I/O.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro import faultsim
from repro.catalog.schema import Column, DataType, TableSchema
from repro.clock import Clock
from repro.errors import MonitorError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analyzer.recommendations import Recommendation
    from repro.engine.database import Database

JOURNAL_TABLE = "tuning_journal"

JOURNAL_SCHEMA = TableSchema(JOURNAL_TABLE, (
    Column("seq", DataType.INT),
    Column("entry_id", DataType.INT),
    Column("cycle", DataType.INT),
    Column("kind", DataType.VARCHAR, 24),
    Column("table_name", DataType.TEXT),
    Column("object_name", DataType.TEXT),
    Column("sql_text", DataType.TEXT),
    Column("undo_sql", DataType.TEXT),
    Column("state", DataType.VARCHAR, 16),
    Column("error", DataType.TEXT),
    Column("ts", DataType.FLOAT),
))


class JournalState(enum.Enum):
    INTENT = "intent"
    APPLIED = "applied"
    FAILED = "failed"
    ROLLED_BACK = "rolled-back"


TERMINAL_STATES = frozenset({
    JournalState.APPLIED, JournalState.FAILED, JournalState.ROLLED_BACK,
})


@dataclass(frozen=True)
class JournalEntry:
    """Latest known state of one journaled change."""

    entry_id: int
    cycle: int
    kind: str
    """A :class:`RecommendationKind` value string."""
    table_name: str
    object_name: str
    """Index name for index creations, table name otherwise."""
    sql: str
    undo_sql: str
    state: JournalState
    error: str
    updated_at: float


class FailureStreak(NamedTuple):
    """Consecutive failures of one statement since it last applied or
    rolled back — the circuit breaker's whole record."""

    count: int
    last_ts: float
    last_error: str


_NO_STREAK = FailureStreak(0, 0.0, "")


@dataclass(frozen=True)
class JournalHealth:
    """Snapshot for ``\\tuner status`` and the chaos invariants."""

    entries: int
    intent: int
    applied: int
    failed: int
    rolled_back: int
    transitions: int
    write_failures: int
    entries_pruned: int
    last_write_at: float | None


class TuningJournal:
    """Append-only persistent journal in the workload database.

    Lock order: ``_write_mutex`` before ``_lock``; neither is ever
    taken while holding an engine or daemon lock.
    """

    def __init__(self, database: "Database", clock: Clock,
                 max_entries: int = 2048) -> None:
        self.database = database
        self.clock = clock
        self.max_entries = max_entries
        # Serializes whole journal writes end to end (see module doc).
        self._write_mutex = threading.Lock()
        self._lock = threading.Lock()
        # In-memory mirror of the table, one cell per change, kept in
        # the order of each change's latest row; bounded by
        # _prune_locked(), which evicts the oldest terminal entries (and
        # deletes their rows) beyond max_entries.
        self._entries: dict[int, JournalEntry] = {}
        self._rowids: dict[int, list[int]] = {}
        # Consecutive failure streaks per statement.  Reset on
        # success/rollback; a live streak's entries are never pruned, so
        # bounded by the entries alive.
        self._streaks: dict[str, FailureStreak] = {}
        self._next_seq = 1
        self._next_entry_id = 1
        self._transitions = 0
        self._write_failures = 0
        self._entries_pruned = 0
        self._last_write_at: float | None = None
        if not database.catalog.has_table(JOURNAL_TABLE):
            database.create_table(JOURNAL_SCHEMA)
        self._load()

    # -- loading -------------------------------------------------------------

    def _load(self) -> None:
        """Rebuild the in-memory mirror from the persisted rows."""
        storage = self.database.storage_for(JOURNAL_TABLE)
        rows = sorted(
            ((row, rowid) for rowid, row in storage.scan()),
            key=lambda pair: pair[0][0])  # by journal seq
        with self._lock:
            for row, rowid in rows:
                (seq, entry_id, cycle, kind, table_name, object_name,
                 sql_text, undo, state_text, error, ts) = row
                self._put(JournalEntry(
                    entry_id=entry_id, cycle=cycle, kind=kind,
                    table_name=table_name, object_name=object_name,
                    sql=sql_text, undo_sql=undo,
                    state=JournalState(state_text), error=error,
                    updated_at=ts), rowid)
                self._next_seq = max(self._next_seq, seq + 1)
                self._next_entry_id = max(self._next_entry_id, entry_id + 1)

    def _put(self, entry: JournalEntry, rowid: int) -> None:
        """Mirror one persisted row, in the order a reload replays it."""
        # Re-inserting moves the change to the end: _entries stays in
        # latest-row order, the order _prune_locked evicts in.
        self._entries.pop(entry.entry_id, None)
        self._entries[entry.entry_id] = entry
        self._rowids.setdefault(entry.entry_id, []).append(rowid)
        self._transitions += 1
        if entry.state is JournalState.FAILED:
            count = self._streaks.get(entry.sql, _NO_STREAK).count
            self._streaks[entry.sql] = FailureStreak(
                count + 1, entry.updated_at, entry.error)
        elif entry.state in (JournalState.APPLIED,
                             JournalState.ROLLED_BACK):
            self._streaks.pop(entry.sql, None)

    # -- writes --------------------------------------------------------------

    def record_intent(self, recommendation: "Recommendation",
                      undo: str, cycle: int) -> int:
        """Durably record that a change is about to be applied.

        Returns the new entry id.  Raises :class:`MonitorError` when
        the journal cannot be written — callers must then *not* apply
        the change (fail closed).
        """
        with self._write_mutex:
            with self._lock:
                entry_id = self._next_entry_id
                self._next_entry_id += 1
            entry = JournalEntry(
                entry_id=entry_id, cycle=cycle,
                kind=recommendation.kind.value,
                table_name=recommendation.table_name,
                object_name=(recommendation.index_name
                             or recommendation.table_name),
                sql=recommendation.to_sql(), undo_sql=undo,
                state=JournalState.INTENT, error="",
                updated_at=self.clock.now())
            # Durable write under _write_mutex is the journal's whole
            # contract (rows hit the table in seq order before the
            # change applies) — the blocking flush is the point.
            self._write_locked(entry)  # staticcheck: ignore[LCK004]
            self._prune_locked()
        return entry_id

    def mark_applied(self, entry_id: int) -> None:
        """Transition an entry to ``applied``."""
        self._transition(entry_id, JournalState.APPLIED, "")

    def mark_failed(self, entry_id: int, error: str) -> None:
        """Transition an entry to ``failed`` with the engine's error."""
        self._transition(entry_id, JournalState.FAILED, error)

    def mark_rolled_back(self, entry_id: int) -> None:
        """Transition an entry to ``rolled-back``."""
        self._transition(entry_id, JournalState.ROLLED_BACK, "")

    def _transition(self, entry_id: int, state: JournalState,
                    error: str) -> None:
        with self._write_mutex:
            with self._lock:
                current = self._entries.get(entry_id)
            if current is None:
                raise MonitorError(
                    f"unknown tuning-journal entry {entry_id}")
            entry = JournalEntry(
                entry_id=current.entry_id, cycle=current.cycle,
                kind=current.kind, table_name=current.table_name,
                object_name=current.object_name, sql=current.sql,
                undo_sql=current.undo_sql, state=state, error=error,
                updated_at=self.clock.now())
            # Same ordering contract as record_intent: flush-in-lock
            # is deliberate.
            self._write_locked(entry)  # staticcheck: ignore[LCK004]
            self._prune_locked()

    def _write_locked(self, entry: JournalEntry) -> None:
        """Append one transition row and flush it to disk.

        The in-memory mirror is only updated after the row has been
        durably written, so memory never claims more than the table
        holds; on failure the counter records the outage and the error
        propagates as MonitorError.
        """
        with self._lock:
            seq = self._next_seq
        row = (seq, entry.entry_id, entry.cycle, entry.kind,
               entry.table_name, entry.object_name, entry.sql,
               entry.undo_sql, entry.state.value, entry.error,
               entry.updated_at)
        try:
            faultsim.fire("journal.write", error=MonitorError,
                          clock=self.clock)
            # Holding _write_mutex across the insert+flush is the
            # point: journal rows must hit the table in seq order.
            rowid = self.database.insert_row(
                JOURNAL_TABLE, row)
            self.database.pool.flush_all()
        except (ReproError, OSError) as error:
            with self._lock:
                self._write_failures += 1
            raise MonitorError(
                f"tuning journal write failed: {error}") from error
        with self._lock:
            self._next_seq = seq + 1
            self._put(entry, rowid)
            self._last_write_at = entry.updated_at

    def _prune_locked(self) -> None:
        """Evict the oldest *terminal* entries beyond ``max_entries``.

        Interrupted (``intent``) entries are never pruned — they are
        exactly what recovery needs — and neither are the failures of
        a live streak, so a reload counts the same streaks as memory
        and a pruned journal never lifts a quarantine.  Eviction goes
        by latest row: a failure that precedes a success goes before
        that success does.  Prune failures are deliberately
        impossible here: rows are deleted outside any engine lock and
        a failed delete would simply leave the row for the next prune.
        """
        with self._lock:
            overflow = len(self._entries) - self.max_entries
            if overflow <= 0:
                return
            streak_ids: dict[str, list[int]] = {}
            for entry_id, entry in self._entries.items():
                if entry.state is JournalState.FAILED:
                    streak_ids.setdefault(entry.sql, []).append(entry_id)
                elif entry.state in TERMINAL_STATES:
                    streak_ids.pop(entry.sql, None)
            live = {entry_id for ids in streak_ids.values()
                    for entry_id in ids}
            victims = [entry_id for entry_id, entry in self._entries.items()
                       if entry.state in TERMINAL_STATES
                       and entry_id not in live][:overflow]
            doomed: list[tuple[int, list[int]]] = []
            for entry_id in victims:
                del self._entries[entry_id]
                doomed.append((entry_id, self._rowids.pop(entry_id, [])))
            self._entries_pruned += len(doomed)
        for _entry_id, rowids in doomed:
            for rowid in rowids:
                try:
                    self.database.delete_row(
                        JOURNAL_TABLE, rowid)
                except (ReproError, OSError):
                    # The row stays until a later prune; the in-memory
                    # mirror already dropped it, which is safe — replay
                    # treats unknown terminal entries as history.
                    break

    # -- reads ---------------------------------------------------------------

    def entries(self) -> tuple[JournalEntry, ...]:
        """Latest state of every journaled change, oldest first."""
        with self._lock:
            return tuple(entry for _entry_id, entry
                         in sorted(self._entries.items()))

    def interrupted(self) -> tuple[JournalEntry, ...]:
        """Entries still in ``intent`` state (crash evidence)."""
        return tuple(entry for entry in self.entries()
                     if entry.state is JournalState.INTENT)

    def applied_sqls(self) -> frozenset[str]:
        """Statements whose latest state is ``applied`` — the durable
        replacement for the tuner's old in-memory ``_already_applied``."""
        with self._lock:
            return frozenset(entry.sql for entry in self._entries.values()
                             if entry.state is JournalState.APPLIED)

    def failure_streaks(self) -> dict[str, FailureStreak]:
        """Per-statement consecutive failures, the tuner's circuit
        breakers; rebuilt from persisted rows on restart, so a
        quarantine survives a tuner crash."""
        with self._lock:
            return dict(self._streaks)

    def health(self) -> JournalHealth:
        """Counts for the health snapshot (``\\tuner status``)."""
        with self._lock:
            by_state = {state: 0 for state in JournalState}
            for entry in self._entries.values():
                by_state[entry.state] += 1
            return JournalHealth(
                entries=len(self._entries),
                intent=by_state[JournalState.INTENT],
                applied=by_state[JournalState.APPLIED],
                failed=by_state[JournalState.FAILED],
                rolled_back=by_state[JournalState.ROLLED_BACK],
                transitions=self._transitions,
                write_failures=self._write_failures,
                entries_pruned=self._entries_pruned,
                last_write_at=self._last_write_at,
            )
