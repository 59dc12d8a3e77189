"""Table-level lock manager with waits-for deadlock detection.

The lock system is both a correctness substrate (serializing writers)
and a *monitored subsystem*: its counters (locks in use, lock waits,
deadlocks) feed the system-wide statistics channel that figure 8 of the
paper visualizes.

Lock order
----------

``LockManager._mutex`` (shared with the ``_granted`` condition that
wraps it) is a *leaf* lock: nothing else is acquired while it is held,
and the only blocking call under it is ``Condition.wait`` — which
releases the mutex while waiting.  Code that needs both an engine lock
and the buffer-pool latch must acquire the engine lock first and never
call back into the lock manager while holding the latch; the deep
staticcheck phase (LCK003/LCK004) enforces this ordering globally.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from repro.errors import DeadlockError, LockTimeoutError

#: Seconds a lock request may wait before raising LockTimeoutError.
WAIT_TIMEOUT_S = 10.0
#: How often a waiting request re-runs deadlock detection.
DEADLOCK_CHECK_INTERVAL_S = 0.05


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class _Resource:
    """Lock state of one table."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    waiters: list[tuple[int, LockMode]] = field(default_factory=list)


@dataclass(frozen=True)
class LockStatistics:
    """Snapshot of lock-system counters for the monitor."""

    locks_held: int
    transactions_waiting: int
    total_requests: int
    total_waits: int
    total_deadlocks: int
    total_timeouts: int


class LockManager:
    """Grants S/X table locks to transactions; detects deadlocks."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._granted = threading.Condition(self._mutex)
        # _granted wraps _mutex, so holding either guards the state.
        self._resources: dict[str, _Resource] = {}
        self._held_by_txn: dict[int, set[str]] = {}
        self._total_requests = 0
        self._total_waits = 0
        self._total_deadlocks = 0
        self._total_timeouts = 0

    # -- public API --------------------------------------------------------

    # staticcheck: hotpath
    def acquire(self, txn_id: int, resource: str, mode: LockMode) -> None:
        """Block until the lock is granted.

        Raises :class:`DeadlockError` if this request closes a cycle in
        the waits-for graph (the requester is the victim) and
        :class:`LockTimeoutError` after :data:`WAIT_TIMEOUT_S` seconds.
        """
        with self._granted:
            self._total_requests += 1
            state = self._resources.get(resource)
            if state is None:
                state = self._resources[resource] = \
                    _Resource()  # staticcheck: allocfree(first-touch-per-resource-only)
            if self._try_grant(state, txn_id, mode):
                self._note_held(txn_id, resource)
                return
            self._total_waits += 1
            state.waiters.append((txn_id, mode))
            waited = 0.0
            interval = DEADLOCK_CHECK_INTERVAL_S
            granted_wait = self._granted.wait
            try:
                while True:
                    if self._creates_deadlock(txn_id):
                        self._total_deadlocks += 1
                        raise DeadlockError(
                            f"transaction {txn_id} deadlocked waiting for "
                            f"{mode.value} lock on {resource!r}"
                        )
                    if self._try_grant(state, txn_id, mode):
                        self._note_held(txn_id, resource)
                        return
                    if waited >= WAIT_TIMEOUT_S:
                        self._total_timeouts += 1
                        raise LockTimeoutError(
                            f"transaction {txn_id} timed out after "
                            f"{waited:.1f}s waiting for {mode.value} lock "
                            f"on {resource!r}"
                        )
                    granted_wait(interval)
                    waited += interval
            finally:
                state.waiters.remove((txn_id, mode))

    # staticcheck: hotpath
    def release_all(self, txn_id: int) -> int:
        """Release every lock held by ``txn_id``; returns how many."""
        with self._granted:
            resources = self._held_by_txn.pop(txn_id, None)
            if not resources:
                return 0
            resource_map = self._resources
            for name in resources:
                state = resource_map.get(name)
                if state is not None:
                    state.holders.pop(txn_id, None)
                    if not state.holders and not state.waiters:
                        del self._resources[name]
            self._granted.notify_all()
            return len(resources)

    def holds(self, txn_id: int, resource: str,
              mode: LockMode | None = None) -> bool:
        with self._mutex:
            state = self._resources.get(resource)
            if state is None or txn_id not in state.holders:
                return False
            return mode is None or state.holders[txn_id] is mode

    def statistics(self) -> LockStatistics:
        with self._mutex:
            held = sum(len(s.holders) for s in self._resources.values())
            waiting = sum(len(s.waiters) for s in self._resources.values())
            return LockStatistics(
                locks_held=held,
                transactions_waiting=waiting,
                total_requests=self._total_requests,
                total_waits=self._total_waits,
                total_deadlocks=self._total_deadlocks,
                total_timeouts=self._total_timeouts,
            )

    # -- internals -----------------------------------------------------------

    def _note_held(self, txn_id: int, resource: str) -> None:
        """Bookkeeping for a granted lock; caller holds ``_granted``."""
        held = self._held_by_txn.get(txn_id)
        if held is None:
            held = self._held_by_txn[txn_id] = \
                set()  # staticcheck: allocfree(first-lock-per-txn-only)
        held.add(resource)

    def _try_grant(self, state: _Resource, txn_id: int,
                   mode: LockMode) -> bool:
        held = state.holders.get(txn_id)
        if held is LockMode.EXCLUSIVE or held is mode:
            return True  # re-entrant
        # Allocation-free compatibility scan (no `others` dict: this
        # runs per acquire and per wakeup under _granted).
        holders = state.holders
        if mode is LockMode.SHARED:
            for other, other_mode in holders.items():
                if other != txn_id and other_mode is not LockMode.SHARED:
                    return False
        else:
            for other in holders:
                if other != txn_id:
                    return False
        state.holders[txn_id] = mode
        return True

    # staticcheck: coldpath(contended-wait-only)
    def _creates_deadlock(self, start_txn: int) -> bool:
        """Cycle check over the waits-for graph starting at ``start_txn``."""
        edges: dict[int, set[int]] = {}
        for state in self._resources.values():
            holders = set(state.holders)
            for waiter, mode in state.waiters:
                blockers = holders - {waiter}
                if mode is LockMode.SHARED:
                    blockers = {
                        t for t in blockers
                        if state.holders[t] is LockMode.EXCLUSIVE
                    }
                if blockers:
                    edges.setdefault(waiter, set()).update(blockers)
        visited: set[int] = set()
        stack = list(edges.get(start_txn, ()))
        while stack:
            node = stack.pop()
            if node == start_txn:
                return True
            if node in visited:
                continue
            visited.add(node)
            stack.extend(edges.get(node, ()))
        return False


class LockGuard:
    """Context manager releasing a transaction's locks on exit."""

    def __init__(self, manager: LockManager, txn_id: int) -> None:
        self._manager = manager
        self._txn_id = txn_id

    def acquire(self, resource: str, mode: LockMode) -> None:
        self._manager.acquire(self._txn_id, resource, mode)

    def __enter__(self) -> "LockGuard":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._manager.release_all(self._txn_id)
