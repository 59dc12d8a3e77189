"""Simulated page-addressed disk with physical I/O accounting.

The disk is the ground truth for two measurements the paper reports:

* **actual costs** of a statement (physical reads/writes observed by the
  executor, recorded by the integrated monitor), and
* **database size on disk** (figure 7 compares the footprint of the
  manually optimized and analyzer-optimized databases).

Pages are byte strings of at most ``page_size`` bytes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro import faultsim
from repro.clock import Clock, SystemClock
from repro.config import StorageConfig
from repro.errors import PageError, StorageError


@dataclass(frozen=True)
class IoCounters:
    """Immutable snapshot of disk activity."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0

    def delta(self, since: "IoCounters") -> "IoCounters":
        """Return the activity between ``since`` and this snapshot."""
        return IoCounters(
            reads=self.reads - since.reads,
            writes=self.writes - since.writes,
            allocations=self.allocations - since.allocations,
            frees=self.frees - since.frees,
        )


class DiskManager:
    """In-memory page store that behaves like a disk for accounting."""

    def __init__(self, config: StorageConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or StorageConfig()
        self._clock = clock or SystemClock()
        self._pages: dict[int, bytes] = {}
        self._next_page_id = 0
        self._lock = threading.Lock()
        self._reads = 0
        self._writes = 0
        self._allocations = 0
        self._frees = 0

    @property
    def page_size(self) -> int:
        return self.config.page_size

    def allocate(self) -> int:
        """Allocate a fresh empty page and return its id."""
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            self._pages[page_id] = b""
            self._allocations += 1
        return page_id

    def read(self, page_id: int) -> bytes:
        """Physically read a page (counted)."""
        # Fault seam, evaluated before the lock so injected latency or
        # errors never execute while holding it.
        faultsim.fire("disk.read", error=StorageError, clock=self._clock)
        with self._lock:
            try:
                data = self._pages[page_id]
            except KeyError:
                raise PageError(f"read of unallocated page {page_id}") from None
            self._reads += 1
        return data

    def write(self, page_id: int, data: bytes) -> None:
        """Physically write a page (counted)."""
        faultsim.fire("disk.write", error=StorageError, clock=self._clock)
        if len(data) > self.config.page_size:
            raise PageError(
                f"page {page_id}: {len(data)} bytes exceed page size "
                f"{self.config.page_size}"
            )
        with self._lock:
            if page_id not in self._pages:
                raise PageError(f"write to unallocated page {page_id}")
            self._pages[page_id] = data
            self._writes += 1

    def free(self, page_id: int) -> None:
        """Return a page to the free pool."""
        with self._lock:
            if self._pages.pop(page_id, None) is None:
                raise PageError(f"free of unallocated page {page_id}")
            self._frees += 1

    def counters(self) -> IoCounters:
        """Snapshot the physical I/O counters."""
        with self._lock:
            return IoCounters(
                reads=self._reads,
                writes=self._writes,
                allocations=self._allocations,
                frees=self._frees,
            )

    @property
    def page_count(self) -> int:
        with self._lock:
            return len(self._pages)

    @property
    def total_bytes(self) -> int:
        """Logical on-disk footprint: allocated pages x page size.

        Like a real DBMS file, an allocated page occupies a full page
        slot regardless of how many bytes of it are used.
        """
        with self._lock:
            return len(self._pages) * self.config.page_size

    @property
    def used_bytes(self) -> int:
        """Sum of the bytes actually written into allocated pages."""
        with self._lock:
            return sum(len(data) for data in self._pages.values())

    def exists(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._pages


class ScopedIoMeter:
    """Context manager measuring disk activity of a code block.

    >>> with ScopedIoMeter(disk) as meter:
    ...     run_query()
    >>> meter.result.reads
    """

    def __init__(self, disk: DiskManager) -> None:
        self._disk = disk
        self._start: IoCounters | None = None
        self.result: IoCounters = IoCounters()

    def __enter__(self) -> "ScopedIoMeter":
        self._start = self._disk.counters()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is None:
            raise StorageError("ScopedIoMeter exited without entering")
        self.result = self._disk.counters().delta(self._start)
