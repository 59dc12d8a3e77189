"""2Q buffer cache between storage structures and the simulated disk.

The pool caches *deserialized* page objects, so a hit avoids both the
physical read and the decode cost — mirroring how the paper's 1m test
exposes the DBMS cache ("the second statement already shows the impact
of caching: execution drops to 5 % of the first").

Storage structures access pages through :meth:`get`, providing a loader
that turns raw bytes into a page object on a miss, and call
:meth:`mark_dirty` after mutating a page.  Dirty pages are written back
on eviction or on :meth:`flush_all`.

Replacement is 2Q (Johnson & Shasha, VLDB 1994) with that paper's
recommended queue sizes, fixed.  A page read once waits in a FIFO
(``A1in``) of at most :data:`A1IN_FRACTION` of the pool; when that FIFO
evicts it, its id (not the page) is remembered in a ghost FIFO
(``A1out``) of :data:`A1OUT_FRACTION` of the pool.  Only a page
requested again while its id is a ghost enters the LRU main queue
(``Am``).  A victim is taken from the FIFO while it is over its share,
otherwise from the LRU end of ``Am``.  So a one-off scan cannot flush
the pages that are re-used, and a loop slightly larger than the pool
keeps nearly all of itself resident where LRU would miss on every page;
a loop of twice the pool still misses on every access, as it does under
LRU.  A hit costs what an LRU hit did, two dictionary operations: a hit
in ``Am`` is a lookup and one ``move_to_end``, a hit in ``A1in`` two
lookups and no reordering.

Lock order
----------

``BufferPool._lock`` is a *leaf* latch: it is never held across a call
into another locked component, and in particular never across
:class:`~repro.storage.disk.DiskManager` I/O (which an injected fault
may delay).  Every method snapshots what must be read or written while
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


class IoTally(threading.local):
    """One thread's page requests (hits and misses), misses (physical
    reads) and write-backs (physical writes) through one pool.  Read
    before and after a statement, the difference is that statement's
    own I/O, whatever other sessions do meanwhile; :meth:`BufferPool.stats`
    and the disk's counters stay the whole pool's."""

    requests = 0
    misses = 0
    writes = 0


#: ``A1in``'s share of the pool: pages read once wait here, in FIFO order.
A1IN_FRACTION = 0.25
#: ``A1out``'s size relative to the pool: ids of pages ``A1in`` evicted.
A1OUT_FRACTION = 0.5


class BufferPool:
    """A fixed-capacity 2Q cache of page objects keyed by page id."""

    def __init__(self, disk: DiskManager, capacity: int) -> None:
        if capacity < 1:
            raise BufferPoolError(f"buffer pool needs capacity >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._a1in_limit = int(capacity * A1IN_FRACTION)
        self._a1out_limit = int(capacity * A1OUT_FRACTION)
        self._lock = threading.RLock()
        # A resident page is in exactly one of A1in / Am; a ghost id is
        # in A1out only while its page is not resident.
        self._a1in: OrderedDict[int, Any] = OrderedDict()
        self._am: OrderedDict[int, Any] = OrderedDict()
        self._a1out: OrderedDict[int, None] = OrderedDict()
        self._dirty: set[int] = set()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._writebacks = 0
        self.tally = IoTally()

    def get(self, page_id: int, loader: Callable[[bytes], _Page]) -> Any:
        """Return the page object for ``page_id``, reading it on a miss.

        The physical read happens with the latch released; on re-entry
        the queues are re-checked, so a page admitted concurrently wins
        over our freshly loaded copy.
        """
        tally = self.tally
        tally.requests += 1
        with self._lock:
            page = self._am.get(page_id)
            if page is not None:
                self._am.move_to_end(page_id)
                self._hits += 1
                return page
            page = self._a1in.get(page_id)
            if page is not None:
                self._hits += 1
                return page
            tally.misses += 1
            self._misses += 1
        raw = self.disk.read(page_id)
        loaded = loader(raw)
        with self._lock:
            page = self._touch(page_id)
            if page is not None:
                return page
            writebacks = self._admit(page_id, loaded, dirty=False)
        self._write_back(writebacks)
        return loaded

    def peek(self, page_id: int) -> Any | None:
        """Return the cached page object for ``page_id``, or ``None``;
        neither counts a hit nor reorders a queue."""
        with self._lock:
            return self._resident(page_id)

    def put_new(self, page_id: int, page: _Page) -> None:
        """Install a freshly created page object (dirty by definition)."""
        with self._lock:
            writebacks = self._admit(page_id, page, dirty=True)
        self._write_back(writebacks)

    def put(self, page_id: int, page: _Page) -> None:
        """Record a mutation of ``page``: (re-)admit it and mark it dirty.

        Safe even if the frame was evicted since the caller obtained the
        page object — the caller's reference is the newest state, so
        re-admitting it (as a miss would) cannot lose data under the
        engine's single-writer discipline.
        """
        with self._lock:
            writebacks = self._admit(page_id, page, dirty=True)
        self._write_back(writebacks)

    def mark_dirty(self, page_id: int) -> None:
        """Record that a cached page was mutated and must be written back."""
        with self._lock:
            if self._touch(page_id) is None:
                raise BufferPoolError(
                    f"mark_dirty on page {page_id} that is not cached"
                )
            self._dirty.add(page_id)

    def _resident(self, page_id: int) -> Any | None:
        page = self._a1in.get(page_id)
        return self._am.get(page_id) if page is None else page

    def _touch(self, page_id: int) -> Any | None:
        """The resident page for ``page_id`` or ``None``, moving an
        ``Am`` page to its MRU end as a hit does."""
        page = self._am.get(page_id)
        if page is None:
            return self._a1in.get(page_id)
        self._am.move_to_end(page_id)
        return page

    def _admit(self, page_id: int, page: _Page,
               dirty: bool) -> list[tuple[int, _Page, bytes]]:
        """Install ``page``, evicting to capacity; return the dirty
        victims ``(page_id, page, serialized bytes)`` the caller must
        write back *after releasing the latch*.

        A resident page is replaced in its queue; a page whose id is a
        ghost enters ``Am``; any other page enters ``A1in``."""
        writebacks: list[tuple[int, _Page, bytes]] = []
        if page_id in self._a1in:
            self._a1in[page_id] = page
        elif page_id in self._am:
            self._am[page_id] = page
            self._am.move_to_end(page_id)
        else:
            ghost = page_id in self._a1out
            if ghost:
                del self._a1out[page_id]
            while len(self._a1in) + len(self._am) >= self.capacity:
                victim = self._evict_one()
                if victim is not None:
                    writebacks.append(victim)
            (self._am if ghost else self._a1in)[page_id] = page
        if dirty:
            self._dirty.add(page_id)
        return writebacks

    def _evict_one(self) -> tuple[int, _Page, bytes] | None:
        """Evict the head of ``A1in`` while it is over its share (its id
        becomes a ghost), otherwise the LRU end of ``Am``; return the
        victim's write-back work, if dirty.

        Serialization happens here, under the latch, so the snapshot is
        consistent; the physical write is the caller's job once the
        latch is released."""
        if len(self._a1in) > self._a1in_limit:
            victim_id, victim = self._a1in.popitem(last=False)
            self._a1out[victim_id] = None
            if len(self._a1out) > self._a1out_limit:
                self._a1out.popitem(last=False)
        else:
            victim_id, victim = self._am.popitem(last=False)
        self._evictions += 1
        if victim_id in self._dirty:
            self._dirty.discard(victim_id)
            self._writebacks += 1
            self.tally.writes += 1
            return victim_id, victim, victim.to_bytes()
        return None

    def _write_back(self,
                    writebacks: list[tuple[int, _Page, bytes]]) -> None:
        """Perform deferred page writes.  Must be called *without* the
        latch held — that is the whole point of deferring them.

        If a write fails, the pages not yet written are the only copy
        of their rows: they go back into ``A1in``, dirty, before the
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
                    if self._resident(page_id) is None:
                        self._a1out.pop(page_id, None)
                        self._a1in[page_id] = page
                    self._dirty.add(page_id)
            raise

    def _snapshot_dirty(self) -> list[tuple[int, _Page, bytes]]:
        """Serialize every dirty page and forget that it is dirty; the
        caller writes the snapshot back outside the latch."""
        writebacks = []
        for page_id in list(self._dirty):
            page = self._resident(page_id)
            writebacks.append((page_id, page, page.to_bytes()))
            self._writebacks += 1
            self.tally.writes += 1
        self._dirty.clear()
        return writebacks

    def flush_all(self) -> int:
        """Write back every dirty page; return how many were written.

        The dirty set is snapshotted (and serialized) under the latch;
        the writes happen outside it, and neither queue is reordered.
        A page re-dirtied concurrently simply lands in the next flush —
        the engine's single-writer discipline rules out lost updates.
        """
        with self._lock:
            writebacks = self._snapshot_dirty()
        self._write_back(writebacks)
        return len(writebacks)

    def invalidate(self, page_id: int) -> None:
        """Drop a page (and its ghost) from the cache without writing it
        back (used when the page is freed on disk)."""
        with self._lock:
            self._a1in.pop(page_id, None)
            self._am.pop(page_id, None)
            self._a1out.pop(page_id, None)
            self._dirty.discard(page_id)

    def clear(self) -> None:
        """Flush dirty pages and empty the cache, ghosts included
        (cold-cache experiments)."""
        with self._lock:
            writebacks = self._snapshot_dirty()
            self._a1in.clear()
            self._am.clear()
            self._a1out.clear()
        self._write_back(writebacks)

    @property
    def cached_page_count(self) -> int:
        with self._lock:
            return len(self._a1in) + len(self._am)

    def stats(self) -> BufferPoolStats:
        with self._lock:
            return BufferPoolStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                dirty_writebacks=self._writebacks,
            )
