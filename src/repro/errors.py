"""Exception hierarchy shared by all repro subsystems.

Every error raised by the library derives from :class:`ReproError` so
applications can catch a single base class.  The subclasses mirror the
major subsystems: SQL front-end, catalog, storage, optimizer, executor
and the engine shell.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """Raised when the tokenizer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the tokens."""


class CatalogError(ReproError):
    """Base class for catalog errors."""


class DuplicateObjectError(CatalogError):
    """Raised when creating a table/index whose name already exists."""


class UnknownObjectError(CatalogError):
    """Raised when referencing a table, column or index that does not exist."""


class StorageError(ReproError):
    """Base class for storage engine errors."""


class PageError(StorageError):
    """Raised on invalid page operations (overflow, bad slot, ...)."""


class BufferPoolError(StorageError):
    """Raised when the buffer pool cannot satisfy a request."""


class OptimizerError(ReproError):
    """Raised when no executable plan can be produced for a statement."""


class ExecutionError(ReproError):
    """Raised by the executor when a plan cannot be evaluated."""


class TypeMismatchError(ExecutionError):
    """Raised when a value does not match the declared column type."""


class LockError(ReproError):
    """Base class for lock manager errors."""


class DeadlockError(LockError):
    """Raised for the victim transaction of a detected deadlock."""


class LockTimeoutError(LockError):
    """Raised when a lock request waits longer than ``WAIT_TIMEOUT_S``."""


class TransactionError(ReproError):
    """Raised on invalid transaction state transitions."""


class MonitorError(ReproError):
    """Raised by the monitoring subsystem (IMA, daemon, workload DB)."""


class FaultError(ReproError):
    """Raised by :mod:`repro.faultsim` for invalid arming/spec requests."""


class InjectedFault(ReproError):
    """Default error raised by an armed :mod:`repro.faultsim` point."""


class AnalyzerError(ReproError):
    """Raised by the analyzer when recommendations cannot be computed."""
