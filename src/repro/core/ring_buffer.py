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
  text hash, object-usage records keyed by name); a hit bumps the
  entry in place and refreshes its recency and its ``updated_seq``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from itertools import islice
from typing import Any, Generic, TypeVar

T = TypeVar("T")
K = TypeVar("K")
R = TypeVar("R", bound=tuple)

# Builds a record from its fields without the NamedTuple's ``__new__``
# frame.
_new_record = tuple.__new__


class RingBuffer(Generic[T]):
    """Fixed-capacity append-only window with sequence numbers.

    Seqs are consecutive, so the window stores bare items and a
    position gives each item's seq; a full window drops its oldest item
    as it appends (a bounded deque).  ``lock`` lets an owner share one
    lock across several rings (the monitor does, for the rings its
    terminal sensor writes in one critical section)."""

    def __init__(self, capacity: int,
                 lock: threading.Lock | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"ring buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = lock or threading.Lock()
        self._items: deque[T] = deque(maxlen=capacity)
        self._next_seq = 1
        # The first seq appended since the last clear: what was
        # appended since and is not in the window was dropped.
        self._cleared_seq = 1

    # staticcheck: hotpath
    def append(self, item: T) -> int:
        """Add ``item``; returns its sequence number.  Overwrites the
        oldest entry once full."""
        with self._lock:
            return self.append_held(item)

    # staticcheck: hotpath; guarded-by(_lock)
    def append_held(self, item: T) -> int:
        """:meth:`append` for a caller that holds the ring's lock."""
        self._items.append(item)
        seq = self._next_seq
        self._next_seq = seq + 1
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
            return self._next_seq - self._cleared_seq - len(self._items)

    def _window(self, min_seq: int) -> tuple[int, list[T]]:
        """The seq of the first item above ``min_seq`` and the items
        from it on, oldest first."""
        with self._lock:
            items, next_seq = self._items, self._next_seq
            # The rows above the floor are a suffix of the window: a
            # reader that is nearly caught up pays for the new rows only.
            new = max(0, min(len(items), next_seq - 1 - min_seq))
            newest_first = list(islice(reversed(items), new))
        newest_first.reverse()
        return next_seq - new, newest_first

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
            self._cleared_seq = self._next_seq


class KeyedRingBuffer(Generic[K, R]):
    """LRU-bounded map of ``record`` tuples with per-entry update
    sequence numbers (``lock`` as for :class:`RingBuffer`).

    An entry is stored as one list, ``[updated_seq, *fields]``, and a
    hit bumps it in place: a fresh ``updated_seq``, one more
    ``frequency`` (if the record has that field), the new values of
    the fields from ``refresh`` on, and most-recently-used.  Reads hand
    out ``record`` tuples built from the entry, which later bumps do
    not change."""

    def __init__(self, record: type[R], capacity: int,
                 lock: threading.Lock | None = None,
                 refresh: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"ring buffer capacity must be >= 1, got {capacity}")
        fields: tuple[str, ...] = getattr(record, "_fields")
        self.capacity = capacity
        self._record = record
        # Entry slots (after the leading seq) of the count and of the
        # first refreshed field; a record without them has no count (0)
        # and an empty refreshed tail, which a bump assigns all the same.
        self._count = 1 + fields.index("frequency") \
            if "frequency" in fields else 0
        self._fresh = 1 + (fields.index(refresh) if refresh else len(fields))
        self._lock = lock or threading.Lock()
        self._items: OrderedDict[K, list[Any]] = OrderedDict()
        self._next_seq = 1
        self._evicted = 0

    def get(self, key: K) -> R | None:
        with self._lock:
            entry = self._items.get(key)
            return None if entry is None \
                else _new_record(self._record, entry[1:])

    # staticcheck: hotpath; guarded-by(_lock)
    def bump_held(self, key: K, fresh: tuple = ()) -> bool:
        """Bump ``key``'s entry in place, for a caller that holds the
        ring's lock; ``fresh`` are the new values of the refreshed
        fields.  Returns False — touching nothing — when ``key`` is
        absent; the caller owns the miss path."""
        entry = self._items.get(key)
        if entry is None:
            return False
        entry[0] = seq = self._next_seq
        self._next_seq = seq + 1
        count = self._count
        if count:
            entry[count] += 1
        entry[self._fresh:] = fresh
        self._items.move_to_end(key)
        return True

    def upsert(self, key: K, record: R) -> bool:
        """Insert ``record`` under ``key``, or bump the entry already
        there with ``record``'s refreshed fields; True if it was
        inserted.

        The existence check and the write happen in *one* critical
        section, so two sessions racing on the same new key cannot both
        observe a miss — exactly one caller gets True (the other's
        bump counts on the winner's entry).  A separate ``key in
        buffer`` probe followed by ``upsert`` has a lost-update window
        between the two lock acquisitions.
        """
        with self._lock:
            if self.bump_held(key, record[self._fresh - 1:]):
                return False
            items = self._items
            while len(items) >= self.capacity:
                items.popitem(last=False)
                self._evicted += 1
            seq = self._next_seq
            self._next_seq += 1
            items[key] = [seq, *record]
            return True

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

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, R]]:
        """(updated_seq, record) pairs with seq > ``min_seq``, in LRU
        order."""
        with self._lock:
            entries = [(entry[0], entry[1:]) for entry in self._items.values()
                       if entry[0] > min_seq]
        record = self._record
        return [(seq, _new_record(record, fields)) for seq, fields in entries]

    def values(self) -> list[R]:
        return [value for _seq, value in self.snapshot()]

    def clear(self) -> None:
        """Empty the map and reset eviction accounting; ``_next_seq``
        survives for the same high-water reason as :meth:`RingBuffer.clear`."""
        with self._lock:
            self._items.clear()
            self._evicted = 0
