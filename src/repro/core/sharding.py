"""Sharded per-session monitoring with one merged IMA view.

A single :class:`~repro.core.monitor.IntegratedMonitor` serializes
every session thread on a handful of buffer locks — the single-session
bottleneck on the road to many concurrent sessions.  This module shards
the monitor: each session hashes (``session_id % shard_count``) to its
own :class:`IntegratedMonitor` with independent locks and sequence
spaces, and :class:`ShardedMonitor` merges the shards back into the one
IMA view the storage daemon and the tools already consume.

Sequence encoding
-----------------
Each shard numbers its records locally (1, 2, 3, ...).  The merged view
encodes a record's global sequence number as::

    merged_seq = local_seq * SHARD_STRIDE + shard_id

which is unique across shards, strictly monotone *per shard*, and
decodable without knowing the configured shard count —
:data:`SHARD_STRIDE` is a fixed constant (not the configured count), so
a daemon restarted with a different ``shard_count`` still decodes
persisted ``src_seq`` values correctly.  A single scalar high-water
mark over this merged space would be unsound (a lagging shard's later
append can encode *below* the global maximum already persisted), so the
daemon keeps one high-water mark per ``(table, shard)`` — the sequence
vector — and polls each shard independently; see
:class:`~repro.core.daemon.StorageDaemon`.

The merged buffer views (:class:`MergedRingView`,
:class:`MergedKeyedView`) expose the same read surface as the
underlying buffers (``snapshot``/``values``/``get``/``len``), so the
shell, the benchmarks and :func:`~repro.core.analyzer.workload_view.
view_from_monitor` work against either monitor flavor.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, Mapping, Sequence, TypeVar

from repro.clock import Clock, SystemClock
from repro.config import MonitorConfig
from repro.core.monitor import IntegratedMonitor, MonitorSensors
from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer
from repro.core.sensors import Sensors, StatementContext

T = TypeVar("T")
K = TypeVar("K")

#: Fixed stride of the merged sequence encoding — deliberately *not*
#: the configured shard count: ``src_seq`` values persisted by one run
#: must stay decodable by a daemon restarted with a different
#: ``shard_count``.  Also the hard cap on shards.
SHARD_STRIDE = 64


def encode_seq(local_seq: int, shard_id: int) -> int:
    """Merge a shard-local sequence number into the global seq space.

    Raises :class:`ValueError` instead of silently corrupting the
    encoding: a ``shard_id`` outside ``[0, SHARD_STRIDE)`` would alias
    another shard's seq space, and a negative ``local_seq`` would
    produce encodings that decode to the wrong shard.
    """
    if shard_id < 0 or shard_id >= SHARD_STRIDE:
        raise ValueError(
            f"shard_id {shard_id} outside [0, {SHARD_STRIDE}): the "
            f"encoding cannot represent it without aliasing")
    if local_seq < 0:
        raise ValueError(
            f"local_seq {local_seq} is negative: encodings would "
            f"decode to the wrong shard")
    return local_seq * SHARD_STRIDE + shard_id


def decode_seq(merged_seq: int) -> tuple[int, int]:
    """Inverse of :func:`encode_seq`: ``(local_seq, shard_id)``."""
    return merged_seq // SHARD_STRIDE, merged_seq % SHARD_STRIDE


def shard_of_seq(merged_seq: int) -> int:
    """The shard id a merged sequence number encodes."""
    return merged_seq % SHARD_STRIDE


class MergedRingView(Generic[T]):
    """Read-only merge of per-shard :class:`RingBuffer` windows.

    Snapshots carry *encoded* sequence numbers and are sorted by them,
    so consumers see one stable global ordering in which every shard's
    records appear in their local append order.
    """

    def __init__(self, buffers: tuple[RingBuffer[T], ...]) -> None:
        self._buffers = buffers

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, T]]:
        """(merged_seq, item) pairs with merged_seq > ``min_seq``."""
        merged: list[tuple[int, T]] = []
        for shard_id, buffer in enumerate(self._buffers):
            merged.extend(
                (encode_seq(seq, shard_id), item)
                for seq, item in buffer.snapshot())
        merged.sort(key=lambda pair: pair[0])
        if min_seq:
            merged = [pair for pair in merged if pair[0] > min_seq]
        return merged

    def values(self) -> list[T]:
        return [item for _seq, item in self.snapshot()]

    def __len__(self) -> int:
        return sum(len(buffer) for buffer in self._buffers)

    @property
    def total_appended(self) -> int:
        return sum(buffer.total_appended for buffer in self._buffers)

    @property
    def dropped(self) -> int:
        return sum(buffer.dropped for buffer in self._buffers)

    def clear(self) -> None:
        """Clear every shard window (each shard's clear is atomic; the
        cross-shard sweep is not — see DESIGN.md on merged clears)."""
        for buffer in self._buffers:
            buffer.clear()


class MergedKeyedView(Generic[K, T]):
    """Read-only merge of per-shard :class:`KeyedRingBuffer` maps.

    Keys may exist in several shards (the same statement issued by
    sessions hashing to different shards); :meth:`get` returns the most
    recently updated record across shards, and :meth:`snapshot` emits
    one row per (shard, key) so the workload DB keeps the per-shard
    history intact.
    """

    def __init__(self, buffers: tuple[KeyedRingBuffer[K, T], ...]) -> None:
        self._buffers = buffers

    def get(self, key: K) -> T | None:
        best_seq = -1
        best: T | None = None
        for shard_id, buffer in enumerate(self._buffers):
            entry = buffer.entry(key)
            if entry is None:
                continue
            merged = encode_seq(entry[0], shard_id)
            if merged > best_seq:
                best_seq = merged
                best = entry[1]
        return best

    def __contains__(self, key: K) -> bool:
        return any(key in buffer for buffer in self._buffers)

    def __len__(self) -> int:
        return sum(len(buffer) for buffer in self._buffers)

    @property
    def evicted(self) -> int:
        return sum(buffer.evicted for buffer in self._buffers)

    def snapshot(self, min_seq: int = 0) -> list[tuple[int, T]]:
        merged: list[tuple[int, T]] = []
        for shard_id, buffer in enumerate(self._buffers):
            merged.extend(
                (encode_seq(seq, shard_id), value)
                for seq, value in buffer.snapshot())
        merged.sort(key=lambda pair: pair[0])
        if min_seq:
            merged = [pair for pair in merged if pair[0] > min_seq]
        return merged

    def values(self) -> list[T]:
        return [value for _seq, value in self.snapshot()]

    def keys(self) -> Iterator[K]:
        seen: dict[K, None] = {}
        for buffer in self._buffers:
            for key in buffer.keys():
                seen[key] = None
        return iter(seen)

    def clear(self) -> None:
        for buffer in self._buffers:
            buffer.clear()


class ShardedMonitor:
    """N per-session monitor shards behind the one-monitor surface.

    Owns ``shard_count`` independent :class:`IntegratedMonitor` shards
    and exposes merged views under the same attribute names a plain
    monitor has (``statements``, ``workload``, ``plans``, ...), plus the
    aggregate sensor-overhead counters, so setups, the shell, IMA and
    the benchmarks treat both monitor flavors uniformly.  All facade
    state is immutable after construction — shards carry their own
    locks; the facade adds none.
    """

    def __init__(self, config: MonitorConfig | None = None,
                 clock: Clock | None = None) -> None:
        self.config = config or MonitorConfig()
        self.clock = clock or SystemClock()
        count = max(1, min(self.config.shard_count, SHARD_STRIDE))
        self.shards: tuple[IntegratedMonitor, ...] = tuple(
            IntegratedMonitor(self.config, self.clock)
            for _ in range(count))
        self.statements: MergedKeyedView[int, Any] = \
            MergedKeyedView(tuple(s.statements for s in self.shards))
        self.workload: MergedRingView[Any] = \
            MergedRingView(tuple(s.workload for s in self.shards))
        self.references: MergedKeyedView[tuple, Any] = \
            MergedKeyedView(tuple(s.references for s in self.shards))
        self.tables: MergedKeyedView[str, Any] = \
            MergedKeyedView(tuple(s.tables for s in self.shards))
        self.attributes: MergedKeyedView[tuple, Any] = \
            MergedKeyedView(tuple(s.attributes for s in self.shards))
        self.indexes: MergedKeyedView[tuple, Any] = \
            MergedKeyedView(tuple(s.indexes for s in self.shards))
        self.statistics: MergedRingView[Any] = \
            MergedRingView(tuple(s.statistics for s in self.shards))
        self.plans: MergedKeyedView[int, Any] = \
            MergedKeyedView(tuple(s.plans for s in self.shards))

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_id_for(self, session_id: int) -> int:
        """The shard bucket a session hashes to."""
        return session_id % len(self.shards)

    def shard_for(self, session_id: int) -> IntegratedMonitor:
        return self.shards[session_id % len(self.shards)]

    # -- aggregate sensor-overhead accounting ------------------------------

    @property
    def sensor_calls(self) -> int:
        return sum(shard.sensor_calls for shard in self.shards)

    @property
    def sensor_time_s(self) -> float:
        return sum(shard.sensor_time_s for shard in self.shards)

    @property
    def average_sensor_call_s(self) -> float:
        calls = self.sensor_calls
        if calls == 0:
            return 0.0
        return self.sensor_time_s / calls

    def reset_counters(self) -> None:
        for shard in self.shards:
            shard.reset_counters()


def monitor_shards(
        monitor: "IntegratedMonitor | ShardedMonitor",
        ) -> tuple[IntegratedMonitor, ...]:
    """The shard tuple of either monitor flavor (a plain monitor is its
    own single shard, id 0)."""
    if isinstance(monitor, ShardedMonitor):
        return monitor.shards
    return (monitor,)


class ShardedMonitorSensors(Sensors):
    """Session-aware sensor fan-out over a :class:`ShardedMonitor`.

    The fast path is :meth:`for_session`: sessions bind a plain
    :class:`MonitorSensors` aimed at their shard once at connect time,
    so per-statement sensor fires pay zero routing.  Unbound callers
    (code holding ``engine.sensors`` directly) are still correct — each
    method routes on the context's session id per call.  Statistics
    sampling goes to shard 0 regardless of session, keeping the global
    one-per-second rate limit.
    """

    def __init__(self, monitor: ShardedMonitor) -> None:
        self.monitor = monitor
        self._shard_sensors: tuple[MonitorSensors, ...] = tuple(
            MonitorSensors(shard, statistics_monitor=monitor.shards[0])
            for shard in monitor.shards)

    def for_session(self, session_id: int) -> MonitorSensors:
        shard = self.monitor.shard_for(session_id)
        return MonitorSensors(shard, session_id,
                              statistics_monitor=self.monitor.shards[0])

    def _route(self, ctx: StatementContext) -> MonitorSensors:
        return self._shard_sensors[
            ctx.session_id % len(self._shard_sensors)]

    def statement_start(self, text: str, session_id: int = 0,
                        text_hash: int | None = None,
                        prepared: Any = None) -> StatementContext:
        sensors = self._shard_sensors[
            session_id % len(self._shard_sensors)]
        return sensors.statement_start(text, session_id, text_hash,
                                       prepared)

    def parse_complete(self, ctx: StatementContext | None, kind: str,
                       table_names: Sequence[str]) -> None:
        if ctx is None:
            return
        self._route(ctx).parse_complete(ctx, kind, table_names)

    def optimize_complete(self, ctx: StatementContext | None,
                          estimated_io: float, estimated_cpu: float,
                          used_indexes: Sequence[str],
                          available_indexes: Sequence[str],
                          referenced_columns: Sequence[tuple[str, str]],
                          optimize_time_s: float,
                          plan_supplier: Callable[[], str] | None = None,
                          ) -> None:
        if ctx is None:
            return
        self._route(ctx).optimize_complete(
            ctx, estimated_io, estimated_cpu, used_indexes,
            available_indexes, referenced_columns, optimize_time_s,
            plan_supplier)

    def execute_complete(self, ctx: StatementContext | None,
                         actual_io: float, actual_cpu: float,
                         logical_reads: int, physical_reads: int,
                         tuples_processed: int, rows_returned: int,
                         execute_time_s: float,
                         wallclock_s: float) -> None:
        if ctx is None:
            return
        self._route(ctx).execute_complete(
            ctx, actual_io, actual_cpu, logical_reads, physical_reads,
            tuples_processed, rows_returned, execute_time_s, wallclock_s)

    def statement_error(self, ctx: StatementContext | None,
                        error: str) -> None:
        if ctx is None:
            return
        self._route(ctx).statement_error(ctx, error)

    def sample_statistics(self, supplier: Callable[[], Mapping[str, Any]],
                          ctx: StatementContext | None = None) -> None:
        self._shard_sensors[0].sample_statistics(supplier, ctx)


__all__ = [
    "SHARD_STRIDE",
    "MergedKeyedView",
    "MergedRingView",
    "ShardedMonitor",
    "ShardedMonitorSensors",
    "decode_seq",
    "encode_seq",
    "monitor_shards",
    "shard_of_seq",
]
