"""Tests for the monitor's ring buffers."""

from typing import NamedTuple

import pytest

from repro.core.ring_buffer import KeyedRingBuffer, RingBuffer


class Use(NamedTuple):
    """A keyed-ring record: a name and how often it was used."""

    name: object
    frequency: int


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RingBuffer(0)

    def test_append_and_snapshot_order(self):
        buffer = RingBuffer(10)
        for i in range(5):
            buffer.append(f"item{i}")
        assert buffer.values() == [f"item{i}" for i in range(5)]
        assert len(buffer) == 5

    def test_sequence_numbers_monotonic(self):
        buffer = RingBuffer(3)
        seqs = [buffer.append(i) for i in range(7)]
        assert seqs == list(range(1, 8))
        assert buffer.total_appended == 7

    def test_wraparound_keeps_newest(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        assert buffer.values() == [7, 8, 9]
        assert buffer.dropped == 7

    def test_snapshot_min_seq(self):
        buffer = RingBuffer(10)
        for i in range(5):
            buffer.append(i)
        newer = buffer.snapshot(min_seq=3)
        assert [item for _seq, item in newer] == [3, 4]

    def test_snapshot_min_seq_after_wrap(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        # records up to seq 7 fell out; asking for > 5 returns what's left
        newer = buffer.snapshot(min_seq=5)
        assert [item for _seq, item in newer] == [7, 8, 9]

    def test_snapshot_is_the_suffix_above_every_floor(self):
        """Every fill level (empty, partial, wrapped at each physical
        offset, cleared and refilled) against the filtered full read."""
        buffer = RingBuffer(4)
        for appended in range(14):
            if appended == 9:
                buffer.clear()
            everything = buffer.snapshot()
            seqs = [seq for seq, _item in everything]
            assert seqs == sorted(seqs) and len(seqs) <= 4
            for floor in range(-1, appended + 3):
                assert buffer.snapshot(floor) == [
                    pair for pair in everything if pair[0] > floor]
            buffer.append(f"item{appended}")

    def test_clear(self):
        buffer = RingBuffer(3)
        buffer.append(1)
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.snapshot() == []

    def test_clear_resets_drop_accounting(self):
        buffer = RingBuffer(3)
        for i in range(10):
            buffer.append(i)
        assert buffer.dropped == 7
        buffer.clear()
        assert buffer.dropped == 0

    def test_clear_keeps_sequence_high_water(self):
        # The daemon's per-buffer high-water marks must stay valid across
        # a clear: sequence numbers are never reused.
        buffer = RingBuffer(3)
        for i in range(5):
            buffer.append(i)
        assert buffer.total_appended == 5
        buffer.clear()
        assert buffer.append("fresh") == 6


class TestKeyedRingBuffer:
    def test_upsert_create_and_update(self):
        buffer = KeyedRingBuffer(Use, 10)
        assert buffer.upsert("a", Use("a", 1))
        assert not buffer.upsert("a", Use("a", 99))
        assert buffer.get("a") == Use("a", 2)  # counted, not replaced
        assert len(buffer) == 1

    def test_get_missing(self):
        assert KeyedRingBuffer(Use, 2).get("x") is None

    def test_lru_eviction(self):
        buffer = KeyedRingBuffer(Use, 3)
        for key in "abc":
            buffer.upsert(key, Use(key, 1))
        buffer.upsert("a", Use("a", 1))  # refresh 'a'
        buffer.upsert("d", Use("d", 1))  # evicts 'b'
        assert "b" not in buffer
        assert "a" in buffer
        assert buffer.evicted == 1

    def test_update_refreshes_seq(self):
        buffer = KeyedRingBuffer(Use, 10)
        buffer.upsert("a", Use("a", 1))
        buffer.upsert("b", Use("b", 1))
        first_snapshot = dict()
        for seq, value in buffer.snapshot():
            first_snapshot[value.name] = seq
        buffer.upsert("a", Use("a", 1))
        refreshed = {value.name: seq for seq, value in buffer.snapshot()}
        assert refreshed["a"] > first_snapshot["a"]

    def test_snapshot_min_seq_only_changed(self):
        buffer = KeyedRingBuffer(Use, 10)
        buffer.upsert("a", Use("a", 1))
        buffer.upsert("b", Use("b", 1))
        high_water = max(seq for seq, _ in buffer.snapshot())
        buffer.upsert("a", Use("a", 1))
        changed = buffer.snapshot(min_seq=high_water)
        assert [value for _seq, value in changed] == [Use("a", 2)]

    def test_contains(self):
        buffer = KeyedRingBuffer(Use, 4)
        buffer.upsert(("x", 1), Use("v", 1))
        assert ("x", 1) in buffer
        assert ("x", 2) not in buffer

    def test_clear(self):
        buffer = KeyedRingBuffer(Use, 4)
        buffer.upsert("a", Use("a", 1))
        buffer.clear()
        assert len(buffer) == 0

    def test_clear_resets_eviction_accounting(self):
        buffer = KeyedRingBuffer(Use, 2)
        for key in "abc":
            buffer.upsert(key, Use(key, 1))
        assert buffer.evicted == 1
        buffer.clear()
        assert buffer.evicted == 0
