"""The engine instance: "one Ingres installation".

Owns the databases, the global lock manager, the session registry and
the sensors, if any.  The paper's three experimental setups map to:

* ``EngineInstance()`` — the *Original* build: ``sensors`` is None and
  a statement runs no monitoring code at all,
* the same with ``engine.sensors = MonitorSensors(monitor)`` —
  *Monitoring*,
* the same plus an attached :class:`~repro.core.daemon.StorageDaemon`
  — *Daemon*.

Sessions read ``sensors`` when they connect, so it is set before the
first :meth:`EngineInstance.connect` (as :mod:`repro.setups` does).
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Mapping

from repro.clock import Clock, SystemClock
from repro.config import EngineConfig
from repro.engine.database import Database
from repro.engine.locks import LockManager
from repro.engine.session import Session
from repro.errors import DuplicateObjectError, UnknownObjectError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.monitor import MonitorSensors


class EngineInstance:
    """A DBMS instance hosting databases and sessions."""

    def __init__(self, config: EngineConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or EngineConfig()
        self.sensors: "MonitorSensors | None" = None
        self.clock = clock or SystemClock()
        self.lock_manager = LockManager(self.config.locks)
        self._databases: dict[str, Database] = {}
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._mutex = threading.Lock()
        self._peak_sessions = 0

    # -- databases -----------------------------------------------------------

    def create_database(self, name: str) -> Database:
        key = name.lower()
        with self._mutex:
            if key in self._databases:
                raise DuplicateObjectError(f"database {name!r} already exists")
            database = Database(name, self.config, self.clock)
            self._databases[key] = database
            return database

    def attach_database(self, database: Database) -> Database:
        """Attach an existing Database object (e.g. one restored from a
        dump) to this instance so sessions can connect to it."""
        key = database.name.lower()
        with self._mutex:
            if key in self._databases:
                raise DuplicateObjectError(
                    f"database {database.name!r} already exists")
            self._databases[key] = database
            return database

    def database(self, name: str) -> Database:
        try:
            return self._databases[name.lower()]
        except KeyError:
            raise UnknownObjectError(
                f"database {name!r} does not exist") from None

    def has_database(self, name: str) -> bool:
        return name.lower() in self._databases

    def database_names(self) -> tuple[str, ...]:
        return tuple(self._databases)

    # -- sessions ---------------------------------------------------------------

    def connect(self, database_name: str) -> Session:
        """Open a session against a database."""
        database = self.database(database_name)
        with self._mutex:
            session_id = next(self._session_ids)
            session = Session(self, database, session_id)
            self._sessions[session_id] = session
            self._peak_sessions = max(self._peak_sessions,
                                      len(self._sessions))
        return session

    def on_session_closed(self, session: Session) -> None:
        with self._mutex:
            self._sessions.pop(session.session_id, None)

    @property
    def active_sessions(self) -> int:
        with self._mutex:
            return len(self._sessions)

    @property
    def peak_sessions(self) -> int:
        with self._mutex:
            return self._peak_sessions

    # -- system-wide statistics (the monitor's third data category) ---------------

    def system_statistics(self) -> Mapping[str, Any]:
        """A snapshot of the instance-wide performance indicators."""
        locks = self.lock_manager.statistics()
        pool_hits = 0
        pool_misses = 0
        physical_reads = 0
        physical_writes = 0
        for database in self._databases.values():
            stats = database.pool.stats()
            pool_hits += stats.hits
            pool_misses += stats.misses
            counters = database.disk.counters()
            physical_reads += counters.reads
            physical_writes += counters.writes
        return {
            "current_sessions": self.active_sessions,
            "peak_sessions": self.peak_sessions,
            "locks_held": locks.locks_held,
            "lock_waiters": locks.transactions_waiting,
            "lock_requests": locks.total_requests,
            "lock_waits": locks.total_waits,
            "deadlocks": locks.total_deadlocks,
            "lock_timeouts": locks.total_timeouts,
            "cache_hits": pool_hits,
            "cache_misses": pool_misses,
            "physical_reads": physical_reads,
            "physical_writes": physical_writes,
        }
