"""Simulated storage engine: disk, pages, buffer pool, heap and B-Tree.

The storage engine is a faithful-but-small model of what the paper's
host DBMS (Ingres) provides: slotted pages on a page-addressed disk, a
2Q buffer cache, a heap storage structure whose tables grow overflow
chains, and a B-Tree structure used both for primary table storage and
for secondary indexes.  All physical I/O is counted by
:class:`repro.storage.disk.DiskManager`, which is what makes "actual
cost" measurements reproducible.
"""

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.heap import HeapStorage
from repro.storage.btree import BTreeStorage
from repro.storage.hash import HashStorage
from repro.storage.table_storage import TableStorage

__all__ = [
    "BufferPool",
    "DiskManager",
    "HashStorage",
    "HeapStorage",
    "BTreeStorage",
    "TableStorage",
]
