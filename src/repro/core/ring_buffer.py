"""Bounded in-memory buffers for monitor data.

All monitor structures are ring buffers holding a *moving window* of
data with a configurable size (the paper's default: 1000 distinct
statements), so the monitoring's memory footprint is fixed no matter
how long the DBMS runs.

Two flavors:

* :class:`RingBuffer` — append-only window of records; each append gets
  a global sequence number so the storage daemon can fetch "everything
  newer than what I already persisted".
* :class:`KeyedRingBuffer` — an LRU-bounded map (statements keyed by
  text hash, object-usage records keyed by name); updates refresh the
  entry's recency and its ``updated_seq``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")
K = TypeVar("K")


class RingBuffer(Generic[T]):
    """Fixed-capacity append-only window with sequence numbers.

    Seqs are consecutive, so the window stores bare items and a
    position gives each item's seq.  ``lock`` lets an owner share one
    lock across several rings (the monitor does, for the rings its
    terminal sensor writes in one critical section)."""

    def __init__(self, capacity: int,
                 lock: threading.Lock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"ring buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = lock or threading.Lock()
        self._items: list[T] = []
        # _start is the physical index of the oldest element.
        self._start = 0
        self._next_seq = 1
        self._dropped = 0

    # staticcheck: hotpath
    def append(self, item: T) -> int:
        """Add ``item``; returns its sequence number.  Overwrites the
        oldest entry once full."""
        with self._lock:
            return self.append_held(item)

    # staticcheck: hotpath; guarded-by(_lock)
    def append_held(self, item: T) -> int:
        """:meth:`append` for a caller that holds the ring's lock."""
        seq = self._next_seq
        self._next_seq += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._start] = item
            self._start = (self._start + 1) % self.capacity
            self._dropped += 1
        return seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def total_appended(self) -> int:
        with self._lock:
            return self._next_seq - 1

    @property
    def dropped(self) -> int:
        """How many records fell out of the window before being read."""
        with self._lock:
            return self._dropped

    def _window(self, min_seq: int) -> tuple[int, list[T]]:
        """The seq of the first item above ``min_seq`` and the items
        from it on, oldest first."""
        with self._lock:
            items, start, n = self._items, self._start, len(self._items)
            # The rows above the floor are a suffix of the window: a
            # reader that is nearly caught up pays for the new rows only.
            skip = max(0, min_seq + 1 + n - self._next_seq)
            first_seq = self._next_seq - n + skip
            first = start + skip
            if first >= n:
                return first_seq, items[first - n:start]
            return first_seq, items[first:] + items[:start]

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, T]]:
        """(seq, item) pairs with seq > ``min_seq``, oldest first."""
        first_seq, items = self._window(min_seq)
        return list(zip(range(first_seq, first_seq + len(items)), items))

    def values(self) -> list[T]:
        return self._window(0)[1]

    def clear(self) -> None:
        """Empty the window and reset drop accounting.

        ``_next_seq`` intentionally survives a clear: sequence numbers
        are the storage daemon's per-buffer high-water marks, and
        reusing them after a clear would make already-persisted seqs
        ambiguous (the daemon would skip — or re-fetch — fresh rows).
        """
        with self._lock:
            self._items.clear()
            self._start = 0
            self._dropped = 0


class KeyedRingBuffer(Generic[K, T]):
    """LRU-bounded map with per-entry update sequence numbers
    (``lock`` as for :class:`RingBuffer`)."""

    def __init__(self, capacity: int,
                 lock: threading.Lock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"ring buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = lock or threading.Lock()
        self._items: OrderedDict[K, tuple[int, T]] = OrderedDict()
        self._next_seq = 1
        self._evicted = 0

    # staticcheck: hotpath
    def get(self, key: K) -> T | None:
        with self._lock:
            entry = self._items.get(key)
            return entry[1] if entry is not None else None

    # staticcheck: hotpath; guarded-by(_lock)
    def bump_held(self, key: K, update: Callable[[T, Any], T],
                  arg: Any) -> bool:
        """Refresh ``key``'s entry in place, for a caller that holds the
        ring's lock: the stored value becomes ``update(value, arg)``,
        most-recently-used, with a fresh ``updated_seq``.  Returns
        False — touching nothing — when ``key`` is absent; the caller
        owns the miss path.

        Unlike :meth:`upsert` the callback takes its argument
        explicitly, so hit paths (the per-statement common case) need
        no per-call closure object.
        """
        entry = self._items.get(key)
        if entry is None:
            return False
        seq = self._next_seq
        self._next_seq += 1
        self._items[key] = (seq, update(entry[1], arg))
        self._items.move_to_end(key)
        return True

    # staticcheck: hotpath
    def upsert(self, key: K, create: Callable[[], T],
               update: Callable[[T], T] | None = None) -> bool:
        """Insert or update the entry for ``key``; True if it was
        inserted.

        ``create`` builds a new record; ``update`` (optional) maps the
        existing record to its refreshed version.  Either way the entry
        becomes most-recently-used and gets a fresh ``updated_seq``.

        The existence check and the write happen in *one* critical
        section, so two sessions racing on the same new key cannot both
        observe a miss — exactly one caller gets True (the other's
        ``update`` refreshes the winner's record).  A separate ``key in
        buffer`` probe followed by ``upsert`` has a lost-update window
        between the two lock acquisitions.
        """
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            items = self._items
            entry = items.get(key)
            if entry is None:
                while len(items) >= self.capacity:
                    items.popitem(last=False)
                    self._evicted += 1
                value = create()
            else:
                value = update(entry[1]) if update is not None else entry[1]
            items[key] = (seq, value)
            items.move_to_end(key)
            return entry is None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._items

    @property
    def evicted(self) -> int:
        with self._lock:
            return self._evicted

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, T]]:
        """(updated_seq, value) pairs with seq > ``min_seq``, in LRU order."""
        with self._lock:
            entries = list(self._items.values())
        return [(seq, value) for seq, value in entries if seq > min_seq]

    def values(self) -> list[T]:
        return [value for _seq, value in self.snapshot()]

    def clear(self) -> None:
        """Empty the map and reset eviction accounting; ``_next_seq``
        survives for the same high-water reason as :meth:`RingBuffer.clear`."""
        with self._lock:
            self._items.clear()
            self._evicted = 0
