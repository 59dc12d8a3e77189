"""LRU buffer cache between storage structures and the simulated disk.

The pool caches *deserialized* page objects, so a hit avoids both the
physical read and the decode cost — mirroring how the paper's 1m test
exposes the DBMS cache ("the second statement already shows the impact
of caching: execution drops to 5 % of the first").

Storage structures access pages through :meth:`get`, providing a loader
that turns raw bytes into a page object on a miss, and call
:meth:`mark_dirty` after mutating a page.  Dirty pages are written back
on eviction or on :meth:`flush_all`.

Lock order
----------

``BufferPool._lock`` is a *leaf* latch: it is never held across a call
into another locked component, and in particular never across
:class:`~repro.storage.disk.DiskManager` I/O (which charges simulated
latency).  Every method snapshots what must be read or written while
holding the latch, releases it, and performs the physical I/O outside —
so a slow disk stalls only the caller, not every thread contending for
the pool.  Code acquiring both this latch and any engine lock must take
the engine lock first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from repro.errors import BufferPoolError
from repro.storage.disk import DiskManager


class _Page(Protocol):
    def to_bytes(self) -> bytes: ...


@dataclass(frozen=True)
class BufferPoolStats:
    """Snapshot of cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """A fixed-capacity LRU cache of page objects keyed by page id."""

    def __init__(self, disk: DiskManager, capacity: int) -> None:
        if capacity < 1:
            raise BufferPoolError(f"buffer pool needs capacity >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._lock = threading.RLock()
        self._frames: OrderedDict[int, Any] = OrderedDict()
        self._dirty: set[int] = set()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writebacks = 0

    def get(self, page_id: int, loader: Callable[[bytes], _Page]) -> Any:
        """Return the page object for ``page_id``, reading it on a miss.

        The physical read happens with the latch released; on re-entry
        the frame table is re-checked, so a page admitted concurrently
        wins over our freshly loaded copy.
        """
        with self._lock:
            page = self._frames.get(page_id)
            if page is not None:
                self._frames.move_to_end(page_id)
                self._hits += 1
                return page
            self._misses += 1
        raw = self.disk.read(page_id)
        loaded = loader(raw)
        with self._lock:
            page = self._frames.get(page_id)
            if page is not None:
                self._frames.move_to_end(page_id)
                return page
            writebacks = self._admit(page_id, loaded, dirty=False)
        self._write_back(writebacks)
        return loaded

    def put_new(self, page_id: int, page: _Page) -> None:
        """Install a freshly created page object (dirty by definition)."""
        with self._lock:
            writebacks = self._admit(page_id, page, dirty=True)
        self._write_back(writebacks)

    def put(self, page_id: int, page: _Page) -> None:
        """Record a mutation of ``page``: (re-)admit it and mark it dirty.

        Safe even if the frame was evicted since the caller obtained the
        page object — the caller's reference is the newest state, so
        re-admitting it cannot lose data under the engine's single-writer
        discipline.
        """
        with self._lock:
            writebacks = self._admit(page_id, page, dirty=True)
        self._write_back(writebacks)

    def mark_dirty(self, page_id: int) -> None:
        """Record that a cached page was mutated and must be written back."""
        with self._lock:
            if page_id not in self._frames:
                raise BufferPoolError(
                    f"mark_dirty on page {page_id} that is not cached"
                )
            self._dirty.add(page_id)
            self._frames.move_to_end(page_id)

    def _admit(self, page_id: int, page: _Page,
               dirty: bool) -> list[tuple[int, _Page, bytes]]:
        """Install ``page``, evicting to capacity; return the dirty
        victims ``(page_id, page, serialized bytes)`` the caller must
        write back *after releasing the latch*."""
        writebacks: list[tuple[int, _Page, bytes]] = []
        if page_id in self._frames:
            self._frames[page_id] = page
            self._frames.move_to_end(page_id)
        else:
            while len(self._frames) >= self.capacity:
                victim = self._evict_one()
                if victim is not None:
                    writebacks.append(victim)
            self._frames[page_id] = page
        if dirty:
            self._dirty.add(page_id)
        return writebacks

    def _evict_one(self) -> tuple[int, _Page, bytes] | None:
        """Evict the LRU frame; return its write-back work, if dirty.

        Serialization happens here, under the latch, so the snapshot is
        consistent; the physical write is the caller's job once the
        latch is released."""
        victim_id, victim = self._frames.popitem(last=False)
        self._evictions += 1
        if victim_id in self._dirty:
            self._dirty.discard(victim_id)
            self._writebacks += 1
            return victim_id, victim, victim.to_bytes()
        return None

    def _write_back(self,
                    writebacks: list[tuple[int, _Page, bytes]]) -> None:
        """Perform deferred page writes.  Must be called *without* the
        latch held — that is the whole point of deferring them.

        If a write fails, the pages not yet written are the only copy
        of their rows: they go back into the cache, dirty, before the
        error propagates (the pool may sit over capacity until the next
        admission evicts it back down)."""
        written = 0
        try:
            for page_id, _page, raw in writebacks:
                self.disk.write(page_id, raw)
                written += 1
        except BaseException:
            with self._lock:
                for page_id, page, _raw in writebacks[written:]:
                    # A copy admitted meanwhile is newer: keep it.
                    self._frames.setdefault(page_id, page)
                    self._dirty.add(page_id)
            raise

    def flush_all(self) -> int:
        """Write back every dirty page; return how many were written.

        The dirty set is snapshotted (and serialized) under the latch;
        the writes happen outside it.  A page re-dirtied concurrently
        simply lands in the next flush — the engine's single-writer
        discipline rules out lost updates.
        """
        with self._lock:
            writebacks = []
            for page_id in list(self._dirty):
                page = self._frames[page_id]
                writebacks.append((page_id, page, page.to_bytes()))
                self._writebacks += 1
            self._dirty.clear()
        self._write_back(writebacks)
        return len(writebacks)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache without writing it back (used when
        the page is freed on disk)."""
        with self._lock:
            self._frames.pop(page_id, None)
            self._dirty.discard(page_id)

    def clear(self) -> None:
        """Flush dirty pages and empty the cache (cold-cache experiments)."""
        with self._lock:
            writebacks = []
            for page_id in list(self._dirty):
                page = self._frames[page_id]
                writebacks.append((page_id, page, page.to_bytes()))
                self._writebacks += 1
            self._dirty.clear()
            self._frames.clear()
        self._write_back(writebacks)

    @property
    def cached_page_count(self) -> int:
        with self._lock:
            return len(self._frames)

    def stats(self) -> BufferPoolStats:
        with self._lock:
            return BufferPoolStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                dirty_writebacks=self._writebacks,
            )
