"""Concurrency regression tests for the monitor's ring buffers.

Two bugs these pin down:

* ``KeyedRingBuffer`` insert race — a containment probe followed by
  ``upsert`` let two sessions both observe a miss for the same new key
  and both report it as newly created (double-logging statement
  references).  ``upsert`` does the check and the write in one
  critical section, so exactly one racer wins.
* ``RingBuffer.clear()`` vs concurrent appenders — a snapshot taken
  around a clear must never mix pre-clear and post-clear sequence
  ranges; the window is always one contiguous, gap-free seq run.
"""

import random
import threading

from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer
from tests.test_core_ring_buffer import Use


class TestUpsertTrackedRace:
    def test_two_threads_exactly_one_creation_per_key(self):
        buffer: KeyedRingBuffer[int, Use] = KeyedRingBuffer(Use, 4096)
        keys = list(range(400))
        created_counts = [0, 0]
        barrier = threading.Barrier(2)

        def racer(slot: int) -> None:
            barrier.wait()
            wins = 0
            for key in keys:
                created = buffer.upsert(key, Use(key, 1))
                if created:
                    wins += 1
            created_counts[slot] = wins

        threads = [threading.Thread(target=racer, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every key was created exactly once across both threads; the
        # loser's upsert counted on the winner's record instead.
        assert sum(created_counts) == len(keys)
        for key in keys:
            assert buffer.get(key) == Use(key, 2)

    def test_upsert_reports_creation(self):
        buffer: KeyedRingBuffer[int, Use] = KeyedRingBuffer(Use, 4)
        assert buffer.upsert(1, Use("a", 1))
        assert buffer.get(1) == Use("a", 1)
        assert not buffer.upsert(1, Use("b", 1))
        assert buffer.get(1) == Use("a", 2)
        assert not buffer.upsert(1, Use("c", 1))
        assert buffer.get(1) == Use("a", 3)


class TestClearSnapshotUnderAppenders:
    def test_snapshots_never_mix_pre_and_post_clear_ranges(self):
        rng = random.Random(20090329)
        buffer: RingBuffer[int] = RingBuffer(capacity=64)
        stop = threading.Event()

        def appender() -> None:
            value = 0
            while not stop.is_set():
                buffer.append(value)
                value += 1

        threads = [threading.Thread(target=appender) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            max_seen = 0
            for _round in range(300):
                if rng.random() < 0.2:
                    buffer.clear()
                snapshot = buffer.snapshot()
                seqs = [seq for seq, _item in snapshot]
                if not seqs:
                    continue
                # Contiguous, gap-free, strictly ascending window: any
                # interleaving of pre-/post-clear records would leave a
                # hole in the range.
                assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
                # Sequence numbering survives clears (never reused):
                assert seqs[0] > 0
                assert seqs[-1] >= max_seen
                max_seen = seqs[-1]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_clear_preserves_sequence_space(self):
        buffer: RingBuffer[str] = RingBuffer(capacity=8)
        for i in range(5):
            buffer.append(f"r{i}")
        high = buffer.snapshot()[-1][0]
        buffer.clear()
        assert len(buffer) == 0
        buffer.append("after")
        (seq, item), = buffer.snapshot()
        assert item == "after" and seq == high + 1
