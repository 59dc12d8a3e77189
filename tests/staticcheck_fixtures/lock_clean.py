"""Fixture twin: the same shape, every mutation guarded."""

import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self.events = []

    def bump(self):
        with self._lock:
            self.count += 1

    def log(self, event):
        with self._lock:
            self.events.append(event)
            self._unsafe_reset()

    # Only log() calls it, under _lock: the rule infers the lock.
    def _unsafe_reset(self):
        self.count = 0

    def peek(self):
        return self.count  # reads are the caller's business
