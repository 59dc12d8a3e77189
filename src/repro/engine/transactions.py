"""Transactions: lock scope plus an in-memory undo log.

The engine runs in autocommit by default; BEGIN/COMMIT/ROLLBACK give a
session explicit transaction scope.  Rollback replays an undo log of
inverse operations — rowids are stable across structures, so undoing a
delete re-inserts under the original rowid.
"""

from __future__ import annotations

import enum
import itertools
import threading
from typing import Callable

from repro.errors import TransactionError


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_txn_ids = itertools.count(1)
_txn_ids_lock = threading.Lock()


def next_transaction_id() -> int:
    with _txn_ids_lock:
        return next(_txn_ids)


class Transaction:
    """One transaction: identity, state and undo log."""

    def __init__(self) -> None:
        self.txn_id = next_transaction_id()
        self.state = TransactionState.ACTIVE
        self._undo: list[Callable[[], None]] = []

    def record_undo(self, action: Callable[[], None]) -> None:
        """Register the inverse of an applied change."""
        self._require_active()
        self._undo.append(action)

    def commit(self) -> None:
        self._require_active()
        self._undo.clear()
        self.state = TransactionState.COMMITTED

    def rollback(self) -> None:
        self.rollback_to(0)
        self.state = TransactionState.ABORTED

    def rollback_to(self, mark: int) -> None:
        """Undo the changes recorded since :attr:`pending_changes` read
        ``mark`` (a statement backing itself out); stays active."""
        self._require_active()
        while len(self._undo) > mark:
            self._undo.pop()()

    @property
    def is_active(self) -> bool:
        return self.state is TransactionState.ACTIVE

    @property
    def pending_changes(self) -> int:
        return len(self._undo)

    def _require_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )
